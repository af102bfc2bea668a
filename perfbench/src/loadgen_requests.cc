/**
 * @file
 * hllc_loadgen's request generator, compiled from the tool's own source
 * so the requests the benchmark evaluates in process are exactly the
 * ones the tool sends. The tool's main() is renamed out of the way.
 */

#define main hllc_loadgen_main
#include "hllc_loadgen.cpp"
#undef main

namespace perfbench
{

hllc::serve::Request
loadgenRequest(std::uint64_t seed, unsigned client, unsigned seq,
               unsigned clients, std::uint64_t refs)
{
    return makeRequest(seed, client, seq, clients, refs);
}

} // namespace perfbench
