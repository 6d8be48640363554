/**
 * @file
 * Profile-guided decoupling-point search (paper Sec. V, Fig. 8/13).
 *
 * The static cost model's ranking is approximate; the autotuner selects
 * more than (N-1) candidate cut points, builds candidate pipelines from
 * combinations of them, profiles each on small training inputs, and keeps
 * the best (never peeking at the test inputs).
 *
 * The search space is wider than cut sets: a SearchPoint also carries a
 * replication factor (paper Sec. IV-C) and a queue depth, and after the
 * seed enumeration the search refines locally around the incumbent,
 * steered by the profile's backpressure signals — deepen the queues when
 * a producer keeps blocking, replicate the stage the measurement says is
 * the bottleneck, and perturb the cut set one move at a time. Every
 * profiled candidate also records the cost model's predicted score, so
 * the result doubles as a model-vs-measurement calibration record.
 */

#ifndef PHLOEM_COMPILER_AUTOTUNE_H
#define PHLOEM_COMPILER_AUTOTUNE_H

#include <functional>
#include <string>
#include <vector>

#include "compiler/compiler.h"

namespace phloem::comp {

/**
 * One point in the autotuner's search space: a cut set plus the non-cut
 * knobs the compiler and runtime already expose.
 */
struct SearchPoint
{
    /** Cut op ids (kept sorted; stage s >= 1 begins at cutOps[s-1]). */
    std::vector<int> cutOps;
    /** Pipeline replication factor (CompileOptions::replicas). */
    int replicas = 1;
    /** Distribute boundary op when replicas > 1 (-1 = independent). */
    int distributeBoundaryOp = -1;
    /** Queue depth override; 0 = the profiler's default depth. */
    int queueDepth = 0;
};

/**
 * What profiling one candidate produced: the training score plus the
 * backpressure signals local refinement steers by. Evaluators that
 * cannot attribute stalls leave the steering fields at their defaults;
 * the search then only explores cut-set moves.
 */
struct CandidateProfile
{
    /** Gmean speedup over serial across the training inputs. */
    double speedup = 0;
    /** Non-empty = rejected (wrong output, deadlock, overflow, ...). */
    std::string rejectReason;

    // --- Steering signals (measured evaluators fill these). ---------
    /** Queue whose producer blocked most (native enq_blocks); -1 unknown. */
    int hottestEnqQueue = -1;
    /** Blocks observed on that queue across the training inputs. */
    uint64_t hottestEnqBlocks = 0;
    /** Stage with the largest stall share; -1 unknown. */
    int hottestStallStage = -1;
    /** That stage's share of total stall (0..1). */
    double hottestStallShare = 0;

    bool accepted() const { return rejectReason.empty() && speedup > 0; }
};

/**
 * Measured evaluator: profile one compiled candidate at one search
 * point (honoring point.queueDepth) and report score + steering.
 */
using CandidateEvaluator = std::function<CandidateProfile(
    const ir::Pipeline& pipeline, const SearchPoint& point)>;

struct AutotuneOptions
{
    /** Hardware thread budget per pipeline (SMT threads per core). */
    int maxThreads = 4;
    /** How many top-ranked candidate cut points to combine. */
    int topK = 6;
    /** Total profile budget: seeds + refinement candidates. */
    int maxCandidates = 96;
    /** Base options applied to every candidate compile. */
    CompileOptions base;

    // --- Measured-profile refinement (off by default for knobs that
    // --- need evaluator support; cut-set moves always run). ---------
    /** Local-refinement rounds around the incumbent (0 = seeds only). */
    int refineRounds = 4;
    /** Replication ceiling; > 1 lets refinement try replicating the
     *  measured-hottest stage (requires a distribute-capable evaluator). */
    int maxReplicas = 1;
    /** Queue-depth ceiling; > profilerQueueDepth lets refinement deepen
     *  queues when the profile shows producers blocking. 0 = off. */
    int maxQueueDepth = 0;
    /** The depth the evaluator runs at when point.queueDepth == 0. */
    int profilerQueueDepth = 24;
};

struct AutotuneEntry
{
    /** The full search point this candidate was compiled from. */
    SearchPoint point;
    /** Cut op ids (== point.cutOps; kept for Fig. 13 consumers). */
    std::vector<int> cuts;
    /** Stage threads + RAs (how Fig. 13 counts pipeline length). */
    int lengthWithRAs = 0;
    double trainingSpeedup = 0;
    /** Cost-model score of the cut set (sum of member cut scores). */
    double predictedScore = 0;
    /** "seed" or the refinement move that produced the candidate. */
    std::string phase = "seed";
    /** Rank among accepted seed candidates by predicted score (0 =
     *  model's favorite); -1 for refinement candidates. */
    int predictedRank = -1;
    /** Rank among accepted seed candidates by measured speedup. */
    int measuredRank = -1;
};

/** A candidate the evaluator (or the compiler) rejected. */
struct AutotuneReject
{
    SearchPoint point;
    std::string phase = "seed";
    std::string reason;
};

/** Model-vs-measurement calibration over the seed candidates. */
struct AutotuneCalibration
{
    /** Accepted seed candidates that were ranked both ways. */
    int seedCandidates = 0;
    /** Measured rank (0-based) of the model's top-predicted seed;
     *  -1 when no seed was accepted. */
    int predictedTop1MeasuredRank = -1;
    /** Mean |predictedRank - measuredRank| (Spearman footrule / n). */
    double meanRankDisplacement = 0;
};

struct AutotuneResult
{
    CompileResult best;
    SearchPoint bestPoint;
    double bestTrainingSpeedup = 0;
    /** Every *accepted* profiled candidate (Fig. 13's distribution).
     *  Rejected candidates are recorded in `rejects`, not here, so the
     *  training-speedup distribution never mixes in 0-speedup rows. */
    std::vector<AutotuneEntry> entries;
    std::vector<AutotuneReject> rejects;
    AutotuneCalibration calibration;
    /** Search diagnostics: enumeration truncation, refinement stops. */
    std::vector<std::string> notes;
    /** Total evaluator invocations (the consumed profile budget). */
    int profiled = 0;
};

/**
 * Measured-profile search: seed from rankCutPoints (enumerated
 * round-robin across cut-set sizes so the budget never silently drops
 * all larger sizes), profile every seed, then refine locally around the
 * incumbent with steered moves (deepen queues, replicate the hottest
 * stage, perturb the cut set) until the budget or the improvement runs
 * out.
 */
AutotuneResult autotuneMeasured(const ir::Function& fn,
                                const AutotuneOptions& opts,
                                const CandidateEvaluator& evaluate);

} // namespace phloem::comp

#endif // PHLOEM_COMPILER_AUTOTUNE_H
