/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is (name, start, end, parent, op): op identifies the grid cell
 * or request the span belongs to, so every span of one operation can be
 * grouped. Spans are kept in memory while the workload runs and written
 * out once at the end. A layer's self time is its spans' durations minus
 * the part of each interval that child spans cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

struct Span
{
    std::string name;
    double start = 0.0; //!< seconds since the tracer was created
    double end = -1.0;  //!< -1 while open
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
};

class Tracer
{
  public:
    /** A disabled tracer records nothing and never reads the clock. */
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). Thread-safe. */
    std::uint64_t begin(const std::string &name, std::uint64_t parent,
                        std::uint64_t op = 0);
    /** Close span @p id (no-op for 0). Thread-safe. */
    void end(std::uint64_t id);

    /** Durations of every closed span named @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;

    /** Self seconds summed per span name over every closed span. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as one JSON document (hllc-perfbench-spans). */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    const Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opened on construction, closed on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, std::uint64_t parent,
          std::uint64_t op = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, op))
    {
    }
    ~Scope() { tracer_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

/**
 * Share of @p capacity that named layers account for: the self seconds
 * of every span name in @p self except those in @p glue (the root and
 * per-operation container spans, whose self time no layer claims).
 * @p capacity is wall time summed over the threads that could run work:
 * a pass's wall time, plus (workers - 1) x makespan for a parallel grid.
 * Time outside every span and idle workers count against coverage unless
 * the caller names them in @p self.
 */
double coverage(const std::map<std::string, double> &self,
                const std::set<std::string> &glue, double capacity);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
