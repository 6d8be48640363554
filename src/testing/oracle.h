/**
 * @file
 * Three-way differential oracle for fuzz cases.
 *
 * One FuzzCase is judged by running the same program, over bit-identical
 * synthesized inputs, through three independent executors:
 *
 *   1. serial reference — Machine::runSerial in functional mode, which
 *      interprets the unsplit function straight through sim/eval.h;
 *   2. cycle simulator  — Machine::runPipeline on the compiled pipeline
 *      (timing model on or off per the case's knobs);
 *   3. native runtime   — rt::Runtime::runPipeline on host threads.
 *
 * All bound arrays must be bit-for-bit identical across the
 * memory images afterwards. Any difference, deadlock, or crash is a
 * verdict the fuzzer reports (and the shrinker minimizes).
 *
 * Input synthesis is deterministic from the case seed, so a failure
 * replays from the printed seed alone.
 */

#ifndef PHLOEM_TESTING_ORACLE_H
#define PHLOEM_TESTING_ORACLE_H

#include <string>
#include <vector>

#include "sim/binding.h"
#include "testing/progen.h"

namespace phloem::fuzz {

enum class Verdict : uint8_t {
    kPass,          ///< all three executors agree
    kCompileReject, ///< compiler declined the pipeline (vacuous pass)
    kMismatch,      ///< memory images differ
    kDeadlock,      ///< simulator or native deadlock detected
    kCrash,         ///< an executor threw (panic, bounds, budget)
};

const char* verdictName(Verdict v);

struct OracleOptions
{
    /**
     * Shrinker self-test hook: corrupt one element of the native image
     * before comparison, simulating a backend divergence.
     */
    bool injectDivergence = false;
    /** Dynamic instruction budget per executor (runaway backstop). */
    uint64_t maxInstructions = 400'000'000ull;
};

struct OracleResult
{
    Verdict verdict = Verdict::kPass;
    /** Human-readable diagnostic (first difference, error, ...). */
    std::string detail;
    /** Compiler notes from the pipeline build. */
    std::vector<std::string> notes;
    /** Stages in the compiled pipeline (0 when rejected). */
    int stages = 0;
    /** Replication was requested and the distribute pass engaged. */
    bool replicationEngaged = false;

    /** True when the case is evidence of health, not a finding. */
    bool ok() const
    {
        return verdict == Verdict::kPass ||
               verdict == Verdict::kCompileReject;
    }
};

/**
 * Deterministically populate a binding for the case: CSR row pointers,
 * in-range index arrays, small data, zeroed outputs, and the scalar n.
 * Calling this twice with the same case yields bit-identical images.
 *
 * With replicas > 1 (a replicated pipeline run), the distributed input
 * stream is additionally partitioned: each replica gets a contiguous
 * slice of the stream array and a matching per-replica n — the analogue
 * of the paper's replicate_arguments(). Because every post-boundary
 * update is a commutative integer atomic routed to its owner replica,
 * the final image is still bit-identical to the serial reference.
 */
void synthesizeBinding(const FuzzCase& fc, sim::Binding& binding,
                       int replicas = 1);

/** Run the three-way differential for one case. Never throws. */
OracleResult runCase(const FuzzCase& fc, const OracleOptions& opts = {});

/**
 * Compile the case exactly as runCase would and return the printed
 * pipeline (stages, queue and RA topology) plus compiler notes — the
 * debugging view for a failing seed.
 */
std::string pipelineDump(const FuzzCase& fc);

} // namespace phloem::fuzz

#endif // PHLOEM_TESTING_ORACLE_H
