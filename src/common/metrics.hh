/**
 * @file
 * Structured observability layer on top of common/stats.
 *
 * The paper's evaluation is about *temporal evolution* — IPC and NVM
 * effective capacity tracked until 50% capacity loss — so end-of-run
 * scalar counters are not enough. This module adds:
 *
 *  - TimeSeries / HistogramSeries: step-indexed sample streams that
 *    subsystems append to once per interval (forecast step, replay
 *    window);
 *  - MetricRegistry: a named collection of series belonging to one run
 *    or grid cell, snapshot/restorable through common/serialize.hh so a
 *    resumed run exports exactly the series an uninterrupted run would;
 *  - machine-readable exporters (--stats-out file.{json,csv}) with a
 *    stable schema ("hllc-stats-v1") that plotting scripts and CI can
 *    rely on.
 *
 * All numbers are emitted via common/numfmt.hh, so a de_DE process
 * locale cannot turn "0.25" into "0,25".
 */

#ifndef HLLC_COMMON_METRICS_HH
#define HLLC_COMMON_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hllc
{
class StatGroup;
} // namespace hllc

namespace hllc::serial
{
class Encoder;
class Decoder;
} // namespace hllc::serial

namespace hllc::metrics
{

/** One named stream of per-interval samples. */
class TimeSeries
{
  public:
    void append(double v) { values_.push_back(v); }

    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    const std::vector<double> &values() const { return values_; }
    double back() const { return values_.back(); }
    void clear() { values_.clear(); }

    void snapshot(serial::Encoder &enc) const;
    void restore(serial::Decoder &dec);

  private:
    std::vector<double> values_;
};

/**
 * A stream of fixed-shape histogram snapshots, one row per interval
 * (e.g. the per-frame live-byte distribution at every forecast step).
 */
class HistogramSeries
{
  public:
    explicit HistogramSeries(std::size_t bucket_count = 16,
                             double bucket_width = 1.0);

    /** Append one snapshot; @p row must have bucketCount() entries. */
    void appendRow(std::vector<std::uint64_t> row);

    std::size_t size() const { return rows_.size(); }
    const std::vector<std::vector<std::uint64_t>> &rows() const
    {
        return rows_;
    }
    std::size_t bucketCount() const { return bucketCount_; }
    double bucketWidth() const { return bucketWidth_; }
    void clear() { rows_.clear(); }

    void snapshot(serial::Encoder &enc) const;
    void restore(serial::Decoder &dec);

  private:
    std::size_t bucketCount_;
    double bucketWidth_;
    std::vector<std::vector<std::uint64_t>> rows_;
};

/**
 * The named series of one run or grid cell. Create-or-find semantics
 * like StatGroup; iteration is in name order, so exports are
 * deterministic.
 *
 * Thread-confined by design, not locked: each grid cell owns one
 * registry on its worker thread and the result is moved into the
 * summary after the cell's future resolves (a std::mutex member would
 * make the type unmovable). Never share one instance across threads.
 */
class MetricRegistry
{
  public:
    /** Create-or-find the scalar series @p name. */
    TimeSeries &series(const std::string &name);
    /** The series @p name, or nullptr if never created. */
    const TimeSeries *findSeries(const std::string &name) const;

    /** Create-or-find the histogram series @p name. */
    HistogramSeries &histogramSeries(const std::string &name,
                                     std::size_t bucket_count = 16,
                                     double bucket_width = 1.0);

    const std::map<std::string, TimeSeries> &allSeries() const
    {
        return series_;
    }
    const std::map<std::string, HistogramSeries> &
    allHistogramSeries() const
    {
        return histogramSeries_;
    }

    bool empty() const
    {
        return series_.empty() && histogramSeries_.empty();
    }
    void clear();

    /** Serialise every series (checkpoint integration). */
    void snapshot(serial::Encoder &enc) const;
    /** Replace contents with a snapshot; throws IoError on corruption. */
    void restore(serial::Decoder &dec);

  private:
    std::map<std::string, TimeSeries> series_;
    std::map<std::string, HistogramSeries> histogramSeries_;
};

/**
 * Everything one grid cell contributes to a stats file. The metrics
 * pointer is borrowed (may be null: the series sections come out empty);
 * counters and scalars are owned copies.
 */
struct CellExport
{
    std::string label;
    const MetricRegistry *metrics = nullptr;
    /** Event counters, in the order they should be emitted. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /** End-of-run scalars (lifetime, initial IPC, ...), in given order. */
    std::vector<std::pair<std::string, double>> scalars;
};

/** Append every counter of @p stats (name order) to @p cell.counters. */
void appendCounters(CellExport &cell, const StatGroup &stats);

/** The schema identifier emitted in every JSON export. */
inline constexpr const char *statsSchema = "hllc-stats-v1";

/** Render cells as a "hllc-stats-v1" JSON document. */
std::string statsToJson(const std::vector<CellExport> &cells,
                        const std::string &experiment);

/**
 * Render cells as long-format CSV: `label,metric,step,value` with
 * scalar rows (`scalar:<name>`) and counter rows (`counter:<name>`)
 * carrying an empty step. Histogram series are JSON-only.
 */
std::string statsToCsv(const std::vector<CellExport> &cells);

/**
 * Write a stats file, format chosen by extension (.json or .csv),
 * atomically (common/serialize.hh). Throws IoError on an unsupported
 * extension or write failure.
 */
void writeStatsFile(const std::string &path,
                    const std::vector<CellExport> &cells,
                    const std::string &experiment);

} // namespace hllc::metrics

#endif // HLLC_COMMON_METRICS_HH
