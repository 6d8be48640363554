/**
 * @file
 * Seeded benchmark inputs: the main suite's training inputs regenerated
 * from the benchmark seed through the public generators, at the same
 * sizes and degrees as wl::tableIVInputs() / wl::spmmInputs(), wrapped
 * as wl::Case objects whose check compares against the public goldens.
 */

#ifndef PHLOEM_PERFBENCH_INPUTS_H
#define PHLOEM_PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace perfbench {

/** One kernel on one seeded input. */
struct KernelInput
{
    std::string kernel;  ///< main-suite workload name ("bfs", ...)
    std::string input;   ///< short input name ("internet", "road", ...)
    std::string source;  ///< the kernel's serial mini-C source
    int maxThreads = 4;  ///< the workload's pipeline-thread budget
    phloem::wl::Case c;
};

/** Derive an independent sub-seed for one generated object. */
uint64_t subSeed(uint64_t seed, uint64_t salt);

/**
 * Build the requested (kernel, input) pairs on inputs generated from
 * `seed`. Inputs are "internet" (R-MAT), "road" (grid), "enron" and
 * "wiki" (random sparse matrices, spmm only). `tiny` shrinks every
 * input ~20x for smoke runs. Goldens are computed here, once.
 */
std::vector<KernelInput> makeKernelInputs(
    uint64_t seed, bool tiny,
    const std::vector<std::pair<std::string, std::string>>& wanted);

/** Every main-suite kernel on each of its two training inputs. */
std::vector<std::pair<std::string, std::string>> mainSuiteTraining();

} // namespace perfbench

#endif // PHLOEM_PERFBENCH_INPUTS_H
