#include "trace.hh"

#include <algorithm>

#include "common/serialize.hh"

namespace perfbench
{

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t
Tracer::begin(const std::string &name, std::uint64_t parent,
              std::uint64_t op)
{
    if (!enabled_)
        return 0;
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{ name, now, -1.0, parent, op });
    return spans_.size();
}

void
Tracer::end(std::uint64_t id)
{
    if (id == 0)
        return;
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = now;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name && s.end >= 0.0)
            out.push_back(s.end - s.start);
    }
    return out;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Children of each span, as [start, end] intervals.
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size() + 1);
    for (const Span &s : spans_) {
        if (s.end >= 0.0 && s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end < 0.0)
            continue;
        // Union of the child intervals, clipped to this span: parallel
        // children (grid cells on several workers) overlap.
        auto &kids = children[i + 1];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double run_start = 0.0, run_end = -1.0;
        for (const auto &[a0, b0] : kids) {
            const double a = std::max(a0, s.start);
            const double b = std::min(b0, s.end);
            if (b <= a)
                continue;
            if (a > run_end) {
                if (run_end > run_start)
                    covered += run_end - run_start;
                run_start = a;
                run_end = b;
            } else {
                run_end = std::max(run_end, b);
            }
        }
        if (run_end > run_start)
            covered += run_end - run_start;
        self[s.name] += std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"schema\": \"hllc-perfbench-spans-v1\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out += "{\"id\": " + std::to_string(i + 1) +
               ", \"name\": " + jsonQuote(s.name) +
               ", \"start\": " + jsonNumber(s.start) +
               ", \"end\": " + jsonNumber(s.end) +
               ", \"parent\": " + std::to_string(s.parent) +
               ", \"op\": " + std::to_string(s.op) + "}";
        out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    hllc::serial::writeFileAtomic(path, out.data(), out.size());
}

double
coverage(const std::map<std::string, double> &self,
         const std::set<std::string> &glue, double capacity)
{
    double named = 0.0;
    for (const auto &[name, secs] : self) {
        if (glue.count(name) == 0)
            named += secs;
    }
    return capacity > 0.0 ? named / capacity : 0.0;
}

} // namespace perfbench
