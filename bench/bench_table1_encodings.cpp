/**
 * @file
 * Table I: the modified-BDI compression encodings, their base/delta
 * widths and resulting sizes, and an empirically measured coverage
 * check (every encoding must be exactly attainable by real contents).
 */

#include <cstdio>
#include <string>

#include "compression/bdi.hh"
#include "sim/grid.hh"
#include "workload/block_synth.hh"

using namespace hllc;
using namespace hllc::compression;

int
main(int argc, char **argv)
{
    sim::parseBenchArgs(argc, argv, {}); // takes no arguments
    std::printf("# Table I: modified-BDI compression encodings\n");
    std::printf("# (ECB = CB + 1-byte CE header; SECDED (527,516) lives "
                "in a per-frame ECC field)\n");
    std::printf("%-14s %6s %7s %8s %9s %7s %10s\n", "encoding", "base",
                "delta", "CB (B)", "ECB (B)", "class", "attainable");

    for (const CeInfo &info : ceTable()) {
        // Verify with the real compressor that synthesized contents hit
        // exactly this encoding.
        bool attainable = true;
        for (std::uint64_t seed = 0; seed < 8 && attainable; ++seed) {
            const BlockData data =
                workload::synthesizeBlock(info.ce, seed);
            attainable =
                BdiCompressor::compress(data).ecbBytes == info.ecbBytes;
        }
        std::printf("%-14s %6u %7u %8u %9u %7s %10s\n",
                    std::string(info.name).c_str(), info.baseBytes,
                    info.deltaBytes, info.cbBytes, info.ecbBytes,
                    std::string(compressClassName(
                        classify(info.ecbBytes))).c_str(),
                    attainable ? "yes" : "NO");
    }

    std::printf("\n# HCR/LCR boundary: %u bytes; CPth candidates:",
                hcrThresholdBytes);
    for (unsigned c : cpthCandidates())
        std::printf(" %u", c);
    std::printf("\n");
    return 0;
}
