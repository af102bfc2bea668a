#include "sim/resilience.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"

namespace hllc::sim
{

namespace
{

/** Merge @p names into @p into, preserving first-seen order. */
void
mergeNames(std::vector<std::string> &into,
           const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        if (std::find(into.begin(), into.end(), name) == into.end())
            into.push_back(name);
    }
}

} // anonymous namespace

std::uint64_t
retryDelayMs(const RetryPolicy &policy, std::size_t retry)
{
    if (retry == 0)
        return 0;
    // min(base * 2^(retry-1), max) with shift clamped so a huge retry
    // count cannot overflow into a zero delay.
    const unsigned shift =
        static_cast<unsigned>(std::min<std::size_t>(retry - 1, 32));
    std::uint64_t delay = policy.baseDelayMs << shift;
    if (policy.baseDelayMs != 0 && (delay >> shift) != policy.baseDelayMs)
        delay = policy.maxDelayMs;
    return std::min(delay, policy.maxDelayMs);
}

const char *
cellStatusName(CellStatus status)
{
    switch (status) {
    case CellStatus::Ok:
        return "ok";
    case CellStatus::Recovered:
        return "recovered";
    case CellStatus::Quarantined:
        return "quarantined";
    case CellStatus::TimedOut:
        return "timed-out";
    case CellStatus::Interrupted:
        return "interrupted";
    }
    return "unknown";
}

std::vector<std::string>
extractFailpointNames(const std::string &error)
{
    // Error messages quote the failpoint as: ... failpoint '<name>'
    static const char marker[] = "failpoint '";
    std::vector<std::string> names;
    std::size_t pos = 0;
    while ((pos = error.find(marker, pos)) != std::string::npos) {
        pos += sizeof(marker) - 1;
        const std::size_t end = error.find('\'', pos);
        if (end == std::string::npos)
            break;
        mergeNames(names, { error.substr(pos, end - pos) });
        pos = end + 1;
    }
    return names;
}

CellReport
runWithRetry(const RetryPolicy &policy, std::size_t cell_index,
             const std::function<void(std::size_t)> &body)
{
    const std::size_t max_attempts =
        std::max<std::size_t>(policy.maxAttempts, 1);
    CellReport result;
    result.index = cell_index;
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
        result.attempts = attempt + 1;
        try {
            body(attempt);
            result.status = attempt == 0 ? CellStatus::Ok
                                         : CellStatus::Recovered;
            return result;
        } catch (const InterruptedError &) {
            result.status = CellStatus::Interrupted;
            result.error = "interrupted";
            result.errorKind = "interrupt";
            return result;
        } catch (const DeadlineExceededError &e) {
            result.status = CellStatus::TimedOut;
            result.error = e.what();
            result.errorKind = "deadline";
            mergeNames(result.failpoints,
                       extractFailpointNames(result.error));
            return result;
        } catch (const IoError &e) {
            result.error = e.what();
            result.errorKind = "io";
        } catch (const std::exception &e) {
            result.error = e.what();
            result.errorKind = "std";
        } catch (...) {
            // The old catch (...) arm recorded only "unknown error";
            // keep the marker explicit and the cell identity attached.
            result.error = "non-std::exception thrown by cell " +
                           formatU64(cell_index);
            result.errorKind = "non-std::exception";
        }
        mergeNames(result.failpoints,
                   extractFailpointNames(result.error));
        if (attempt + 1 >= max_attempts)
            break;
        const std::uint64_t delay = retryDelayMs(policy, attempt + 1);
        warn("cell %zu attempt %zu/%zu failed (%s); retrying in %llu ms",
             cell_index, attempt + 1, max_attempts, result.error.c_str(),
             static_cast<unsigned long long>(delay));
        if (interruptibleSleepMs(delay)) {
            result.status = CellStatus::Interrupted;
            result.errorKind = "interrupt";
            return result;
        }
    }
    result.status = CellStatus::Quarantined;
    return result;
}

std::string
failureReportToJson(const std::vector<CellReport> &cells)
{
    std::size_t counts[5] = { 0, 0, 0, 0, 0 };
    for (const CellReport &cell : cells)
        ++counts[static_cast<std::size_t>(cell.status)];

    std::string out;
    out += "{\n  \"schema\": \"hllc-failures-v1\",\n";
    out += "  \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellReport &cell = cells[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"index\": " + formatU64(cell.index);
        out += ", \"label\": \"" + jsonEscape(cell.label) + "\"";
        out += ", \"attempts\": " + formatU64(cell.attempts);
        out += ", \"outcome\": \"";
        out += cellStatusName(cell.status);
        out += "\", \"error\": \"" + jsonEscape(cell.error) + "\"";
        out += ", \"error_kind\": \"" + jsonEscape(cell.errorKind) + "\"";
        out += ", \"failpoints\": [";
        for (std::size_t f = 0; f < cell.failpoints.size(); ++f) {
            if (f > 0)
                out += ", ";
            // Piecewise: GCC 12's -Wrestrict misfires on the
            // "\"" + string + "\"" temporary here.
            out += '"';
            out += jsonEscape(cell.failpoints[f]);
            out += '"';
        }
        out += "]}";
    }
    out += cells.empty() ? "],\n" : "\n  ],\n";
    out += "  \"total\": " + formatU64(cells.size()) + ",\n";
    out += "  \"ok\": " +
           formatU64(counts[static_cast<std::size_t>(CellStatus::Ok)]) +
           ",\n";
    out += "  \"recovered\": " +
           formatU64(
               counts[static_cast<std::size_t>(CellStatus::Recovered)]) +
           ",\n";
    out += "  \"quarantined\": " +
           formatU64(
               counts[static_cast<std::size_t>(CellStatus::Quarantined)]) +
           ",\n";
    out += "  \"timed_out\": " +
           formatU64(
               counts[static_cast<std::size_t>(CellStatus::TimedOut)]) +
           ",\n";
    out += "  \"interrupted\": " +
           formatU64(
               counts[static_cast<std::size_t>(CellStatus::Interrupted)]) +
           "\n}\n";
    return out;
}

void
writeFailureReport(const std::string &path,
                   const std::vector<CellReport> &cells)
{
    const std::string body = failureReportToJson(cells);
    serial::writeFileAtomic(path, body.data(), body.size());
}

} // namespace hllc::sim
