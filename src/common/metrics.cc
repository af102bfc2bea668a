#include "common/metrics.hh"

#include <cmath>

#include "common/error.hh"
#include "common/failpoint.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"
#include "common/stats.hh"

namespace hllc::metrics
{

void
TimeSeries::snapshot(serial::Encoder &enc) const
{
    enc.f64Vec(values_);
}

void
TimeSeries::restore(serial::Decoder &dec)
{
    values_ = dec.f64Vec();
}

HistogramSeries::HistogramSeries(std::size_t bucket_count,
                                 double bucket_width)
    : bucketCount_(bucket_count), bucketWidth_(bucket_width)
{
    HLLC_ASSERT(bucket_count > 0);
    HLLC_ASSERT(bucket_width > 0.0);
}

void
HistogramSeries::appendRow(std::vector<std::uint64_t> row)
{
    HLLC_ASSERT(row.size() == bucketCount_);
    rows_.push_back(std::move(row));
}

void
HistogramSeries::snapshot(serial::Encoder &enc) const
{
    enc.u64(bucketCount_);
    enc.f64(bucketWidth_);
    enc.u64(rows_.size());
    for (const auto &row : rows_)
        enc.u64Vec(row);
}

void
HistogramSeries::restore(serial::Decoder &dec)
{
    const std::uint64_t count = dec.u64();
    const double width = dec.f64();
    if (count != bucketCount_ || width != bucketWidth_)
        throw IoError("histogram series bucket configuration mismatch");
    const std::uint64_t num_rows = dec.u64();
    std::vector<std::vector<std::uint64_t>> rows;
    rows.reserve(num_rows);
    for (std::uint64_t i = 0; i < num_rows; ++i) {
        std::vector<std::uint64_t> row = dec.u64Vec();
        if (row.size() != bucketCount_)
            throw IoError("histogram series row has wrong bucket count");
        rows.push_back(std::move(row));
    }
    rows_ = std::move(rows);
}

TimeSeries &
MetricRegistry::series(const std::string &name)
{
    return series_[name];
}

const TimeSeries *
MetricRegistry::findSeries(const std::string &name) const
{
    auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
}

HistogramSeries &
MetricRegistry::histogramSeries(const std::string &name,
                                std::size_t bucket_count,
                                double bucket_width)
{
    auto it = histogramSeries_.find(name);
    if (it == histogramSeries_.end()) {
        it = histogramSeries_.emplace(
            name, HistogramSeries(bucket_count, bucket_width)).first;
    }
    return it->second;
}

void
MetricRegistry::clear()
{
    series_.clear();
    histogramSeries_.clear();
}

void
MetricRegistry::snapshot(serial::Encoder &enc) const
{
    enc.u64(series_.size());
    for (const auto &[name, ts] : series_) {
        enc.str(name);
        ts.snapshot(enc);
    }
    enc.u64(histogramSeries_.size());
    for (const auto &[name, hs] : histogramSeries_) {
        enc.str(name);
        hs.snapshot(enc);
    }
}

void
MetricRegistry::restore(serial::Decoder &dec)
{
    // Decode fully before mutating so a corrupt snapshot leaves the
    // registry unchanged.
    const std::uint64_t num_series = dec.u64();
    std::map<std::string, TimeSeries> series;
    for (std::uint64_t i = 0; i < num_series; ++i) {
        const std::string name = dec.str();
        TimeSeries ts;
        ts.restore(dec);
        series.emplace(name, std::move(ts));
    }

    const std::uint64_t num_hist = dec.u64();
    std::map<std::string, HistogramSeries> hists;
    for (std::uint64_t i = 0; i < num_hist; ++i) {
        const std::string name = dec.str();
        // Learn the snapshot's own shape (peek with a copied cursor),
        // then restore through a matching-shape series.
        serial::Decoder probe = dec;
        const std::uint64_t count = probe.u64();
        const double width = probe.f64();
        if (count == 0 || count > (1u << 20) || !(width > 0.0))
            throw IoError("histogram series config is implausible");
        HistogramSeries hs(static_cast<std::size_t>(count), width);
        hs.restore(dec);
        hists.emplace(name, std::move(hs));
    }

    series_ = std::move(series);
    histogramSeries_ = std::move(hists);
}

namespace
{

/**
 * JSON numbers must not be NaN/Inf; series can legitimately carry them
 * (e.g. a rate over an empty interval), so emit those as null.
 */
std::string
jsonNumber(double v)
{
    if (std::isnan(v) || std::isinf(v))
        return "null";
    return formatDouble(v);
}

void
appendSeriesJson(std::string &out, const MetricRegistry &reg,
                 const std::string &ind)
{
    out += ind + "\"series\": {";
    bool first = true;
    for (const auto &[name, ts] : reg.allSeries()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += ind + "  \"" + jsonEscape(name) + "\": {\"values\": [";
        for (std::size_t i = 0; i < ts.values().size(); ++i) {
            if (i)
                out += ", ";
            out += jsonNumber(ts.values()[i]);
        }
        out += "]}";
    }
    out += first ? "}" : "\n" + ind + "}";
}

void
appendHistogramSeriesJson(std::string &out, const MetricRegistry &reg,
                          const std::string &ind)
{
    out += ind + "\"histogram_series\": {";
    bool first = true;
    for (const auto &[name, hs] : reg.allHistogramSeries()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += ind + "  \"" + jsonEscape(name) + "\": {";
        out += "\"bucket_count\": " + formatU64(hs.bucketCount());
        out += ", \"bucket_width\": " + jsonNumber(hs.bucketWidth());
        out += ", \"rows\": [";
        for (std::size_t r = 0; r < hs.rows().size(); ++r) {
            if (r)
                out += ", ";
            out += "[";
            const auto &row = hs.rows()[r];
            for (std::size_t b = 0; b < row.size(); ++b) {
                if (b)
                    out += ", ";
                out += formatU64(row[b]);
            }
            out += "]";
        }
        out += "]}";
    }
    out += first ? "}" : "\n" + ind + "}";
}

void
appendCountersJson(std::string &out, const CellExport &cell,
                   const std::string &ind)
{
    out += ind + "\"counters\": {";
    bool first = true;
    for (const auto &[name, value] : cell.counters) {
        out += first ? "\n" : ",\n";
        first = false;
        out += ind + "  \"" + jsonEscape(name) + "\": " +
               formatU64(value);
    }
    out += first ? "}" : "\n" + ind + "}";
}

/** One CSV row; step is empty for scalar/counter rows. */
void
csvRow(std::string &out, const std::string &label,
       const std::string &metric, const std::string &step,
       const std::string &value)
{
    out += label;
    out += ',';
    out += metric;
    out += ',';
    out += step;
    out += ',';
    out += value;
    out += '\n';
}

} // namespace

void
appendCounters(CellExport &cell, const StatGroup &stats)
{
    for (const auto &[name, c] : stats.counters())
        cell.counters.emplace_back(name, c.value());
}

std::string
statsToJson(const std::vector<CellExport> &cells,
            const std::string &experiment)
{
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"";
    out += statsSchema;
    out += "\",\n";
    out += "  \"experiment\": \"" + jsonEscape(experiment) + "\",\n";
    out += "  \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellExport &cell = cells[i];
        out += i ? ",\n" : "\n";
        out += "    {\n";
        out += "      \"label\": \"" + jsonEscape(cell.label) + "\",\n";

        out += "      \"scalars\": {";
        for (std::size_t s = 0; s < cell.scalars.size(); ++s) {
            out += s ? ",\n" : "\n";
            out += "        \"" + jsonEscape(cell.scalars[s].first) +
                   "\": " + jsonNumber(cell.scalars[s].second);
        }
        out += cell.scalars.empty() ? "}," : "\n      },";
        out += "\n";

        appendCountersJson(out, cell, "      ");
        out += ",\n";

        const MetricRegistry empty;
        const MetricRegistry &reg =
            cell.metrics != nullptr ? *cell.metrics : empty;
        appendSeriesJson(out, reg, "      ");
        out += ",\n";
        appendHistogramSeriesJson(out, reg, "      ");
        out += "\n    }";
    }
    out += cells.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

std::string
statsToCsv(const std::vector<CellExport> &cells)
{
    std::string out = "label,metric,step,value\n";
    for (const CellExport &cell : cells) {
        for (const auto &[name, value] : cell.scalars)
            csvRow(out, cell.label, "scalar:" + name, "",
                   formatDouble(value));
        for (const auto &[name, value] : cell.counters)
            csvRow(out, cell.label, "counter:" + name, "",
                   formatU64(value));
        if (cell.metrics != nullptr) {
            for (const auto &[name, ts] : cell.metrics->allSeries()) {
                for (std::size_t i = 0; i < ts.values().size(); ++i)
                    csvRow(out, cell.label, name, formatU64(i),
                           formatDouble(ts.values()[i]));
            }
        }
    }
    return out;
}

void
writeStatsFile(const std::string &path,
               const std::vector<CellExport> &cells,
               const std::string &experiment)
{
    std::string body;
    if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0)
        body = statsToJson(cells, experiment);
    else if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0)
        body = statsToCsv(cells);
    else
        throw IoError("--stats-out path must end in .json or .csv: " +
                      path);
    HLLC_FAILPOINT("stats.export");
    serial::writeFileAtomic(path, body.data(), body.size());
}

} // namespace hllc::metrics
