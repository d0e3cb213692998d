/**
 * @file
 * Workload definition and registry.
 *
 * A Workload bundles a synthetic-ISA program with its initial memory
 * image and register state. The registry exposes the ten
 * SPECint2000-like kernels the paper evaluates (see DESIGN.md §1 for
 * the substitution rationale).
 */

#ifndef GDIFF_WORKLOAD_WORKLOAD_HH
#define GDIFF_WORKLOAD_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/program.hh"
#include "workload/executor.hh"

namespace gdiff {
namespace workload {

/**
 * A runnable workload: program text, initial data-segment image, and
 * initial register file.
 */
struct Workload
{
    isa::Program program;
    /// (byte address, word) pairs applied to memory before running
    std::vector<std::pair<uint64_t, int64_t>> memoryImage;
    /// initial architectural register values
    std::array<int64_t, isa::numRegs> initialRegs{};
    /// named PCs of instructions the benches instrument (e.g. the
    /// parser kernel's spill-fill reload for the paper's Fig. 1)
    std::vector<std::pair<std::string, uint64_t>> markers;

    /** Instantiate a ready-to-run executor for this workload. */
    std::unique_ptr<Executor> makeExecutor() const;

    /**
     * @return the PC registered under a marker name.
     * Calls fatal() if the marker does not exist.
     */
    uint64_t markerPc(const std::string &name) const;
};

/**
 * @return the names of the ten SPECint2000-like kernels, in the order
 * the paper's figures list them (bzip2, gap, gcc, gzip, mcf, parser,
 * perl, twolf, vortex, vpr).
 */
const std::vector<std::string> &specWorkloadNames();

/**
 * @return whether makeWorkload() would accept @p name — a spec kernel
 * or a "micro."-prefixed microbenchmark. Lets servers validate
 * untrusted names without tripping makeWorkload's fatal().
 */
bool knownWorkload(const std::string &name);

/**
 * Construct a workload by name.
 *
 * @param name one of specWorkloadNames().
 * @param seed seed for the kernel's internal data-synthesis RNG;
 *             identical (name, seed) pairs produce identical streams.
 */
Workload makeWorkload(const std::string &name, uint64_t seed = 1);

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_WORKLOAD_HH
