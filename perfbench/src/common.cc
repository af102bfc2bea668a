#include "common.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <sys/resource.h>

#include "common/serialize.hh"

namespace perfbench
{

void
Report::op(const std::string &why)
{
    ++attempted;
    if (why.empty())
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

std::string
Report::check(const std::string &key, const std::string &digest)
{
    outputs.emplace(key, digest); // the first digest seen is reported
    const auto ref = reference.find(key);
    const std::string &want =
        ref != reference.end() ? ref->second : outputs.at(key);
    if (digest == want)
        return {};
    return key + ": digest " + digest + " != " +
           (ref != reference.end() ? "reference " : "first run ") + want;
}

double
processCpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
processPeakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(const void *bytes, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(bytes);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    addValue(T v)
    {
        add(&v, sizeof v);
    }

    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        for (int i = 0; i < 16; ++i)
            out[15 - i] = digits[(h >> (4 * i)) & 0xf];
        return out;
    }
};

} // anonymous namespace

std::string
digestBytes(const void *bytes, std::size_t size)
{
    Fnv fnv;
    fnv.add(bytes, size);
    return fnv.hex();
}

std::string
digestTrace(const hllc::replay::LlcTrace &trace)
{
    Fnv fnv;
    for (const hllc::hybrid::LlcEvent &e : trace.events()) {
        fnv.addValue(e.blockNum);
        fnv.addValue(static_cast<std::uint8_t>(e.type));
        fnv.addValue(e.ecbBytes);
        fnv.addValue(e.core);
    }
    const hllc::replay::TraceMeta &meta = trace.meta();
    for (const hllc::replay::CoreMeta &m : meta.cores) {
        fnv.addValue(m.instructions);
        fnv.addValue(m.refs);
        fnv.addValue(m.l1Hits);
        fnv.addValue(m.l2Hits);
        fnv.addValue(m.llcDemands);
        fnv.addValue(m.baseCpi);
    }
    fnv.add(meta.mixName.data(), meta.mixName.size());
    return fnv.hex();
}

std::string
digestFile(const std::string &path)
{
    const std::vector<std::uint8_t> bytes = hllc::serial::readFileBytes(path);
    return digestBytes(bytes.data(), bytes.size());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
spansPath(const Options &options)
{
    const std::filesystem::path run(options.runDir);
    return (run.parent_path() / ("spans-" + options.workload + ".json"))
        .string();
}

void
makeDirs(const std::string &dir)
{
    std::filesystem::create_directories(dir);
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

} // namespace perfbench
