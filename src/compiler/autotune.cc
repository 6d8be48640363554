#include "compiler/autotune.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "base/logging.h"
#include "compiler/cost_model.h"

namespace phloem::comp {

namespace {

/** Enumerate all size-k subsets of [0, n). */
void
subsets(int n, int k, std::vector<std::vector<int>>& out)
{
    std::vector<int> cur;
    std::function<void(int)> rec = [&](int start) {
        if (static_cast<int>(cur.size()) == k) {
            out.push_back(cur);
            return;
        }
        for (int i = start; i < n; ++i) {
            cur.push_back(i);
            rec(i + 1);
            cur.pop_back();
        }
    };
    rec(0);
}

/** Stable identity of a search point, for visited-set dedup. */
std::string
pointKey(const SearchPoint& p)
{
    std::ostringstream oss;
    for (int c : p.cutOps)
        oss << c << ',';
    oss << "|r" << p.replicas << "|b" << p.distributeBoundaryOp << "|q"
        << p.queueDepth;
    return oss.str();
}

std::string
describeCuts(const SearchPoint& p)
{
    std::ostringstream oss;
    for (size_t i = 0; i < p.cutOps.size(); ++i)
        oss << (i > 0 ? "+" : "") << p.cutOps[i];
    return oss.str();
}

/** The state one autotuneMeasured() call threads through its helpers. */
struct Search
{
    const ir::Function& fn;
    const AutotuneOptions& opts;
    const CandidateEvaluator& evaluate;
    AutotuneResult result;
    std::vector<CutCandidate> ranked;
    /** Cost-model score per cut op (max over ranked entries). */
    std::map<int, double> scoreOf;
    std::set<std::string> visited;
    CandidateProfile bestProfile;

    Search(const ir::Function& f, const AutotuneOptions& o,
           const CandidateEvaluator& e)
        : fn(f), opts(o), evaluate(e)
    {
    }

    int budgetLeft() const
    {
        return opts.maxCandidates - result.profiled;
    }

    double predictedScore(const SearchPoint& p) const
    {
        double s = 0;
        for (int cut : p.cutOps) {
            auto it = scoreOf.find(cut);
            if (it != scoreOf.end())
                s += it->second;
        }
        return s;
    }

    /**
     * Compile + profile one point; records the entry or the reject and
     * updates the incumbent. Returns the entry index, or -1 if the
     * candidate was rejected (or a duplicate, which costs no budget).
     */
    int profile(SearchPoint point, const std::string& phase)
    {
        std::sort(point.cutOps.begin(), point.cutOps.end());
        if (!visited.insert(pointKey(point)).second)
            return -1;

        CompileOptions copts = opts.base;
        copts.explicitCuts = point.cutOps;
        copts.replicas = point.replicas;
        copts.distributeBoundaryOp = point.distributeBoundaryOp;

        CompileResult cres = compilePipeline(fn, copts);
        result.profiled++;
        if (!cres.ok()) {
            result.rejects.push_back(
                {point, phase,
                 cres.problems.empty() ? "compile failed"
                                       : "verify: " + cres.problems.front()});
            return -1;
        }
        if (static_cast<int>(cres.pipeline->stages.size()) >
            opts.maxThreads) {
            result.rejects.push_back(
                {point, phase,
                 "exceeds thread budget (" +
                     std::to_string(cres.pipeline->stages.size()) + " > " +
                     std::to_string(opts.maxThreads) + " stages)"});
            return -1;
        }

        CandidateProfile prof = evaluate(*cres.pipeline, point);
        if (!prof.accepted()) {
            result.rejects.push_back(
                {point, phase,
                 !prof.rejectReason.empty()
                     ? prof.rejectReason
                     : "rejected by evaluator (speedup <= 0)"});
            return -1;
        }

        AutotuneEntry entry;
        entry.point = point;
        entry.cuts = cres.cuts;
        entry.lengthWithRAs = cres.pipeline->lengthWithRAs();
        entry.trainingSpeedup = prof.speedup;
        entry.predictedScore = predictedScore(point);
        entry.phase = phase;
        result.entries.push_back(entry);

        if (prof.speedup > result.bestTrainingSpeedup) {
            result.bestTrainingSpeedup = prof.speedup;
            result.best = std::move(cres);
            result.bestPoint = point;
            bestProfile = prof;
        }
        return static_cast<int>(result.entries.size()) - 1;
    }
};

/**
 * Seed enumeration: all combinations of 1..(maxThreads-1) cuts from the
 * top-k ranked points ("no fewer than fifty different pipelines" for
 * the paper's benchmarks at k=6, up to 3 cuts), taken round-robin
 * across cut-set sizes so a tight budget keeps every size represented
 * instead of silently dropping all of the largest size.
 */
void
profileSeeds(Search& s, int seed_budget)
{
    int k = std::min<int>(s.opts.topK, static_cast<int>(s.ranked.size()));
    std::vector<std::vector<std::vector<int>>> by_size;
    size_t enumerated = 0;
    for (int size = 1; size < s.opts.maxThreads; ++size) {
        std::vector<std::vector<int>> combos;
        subsets(k, size, combos);
        enumerated += combos.size();
        by_size.push_back(std::move(combos));
    }

    std::vector<std::vector<int>> order;
    std::vector<size_t> next(by_size.size(), 0);
    bool advanced = true;
    while (advanced) {
        advanced = false;
        for (size_t size = 0; size < by_size.size(); ++size) {
            if (next[size] < by_size[size].size()) {
                order.push_back(by_size[size][next[size]++]);
                advanced = true;
            }
        }
    }

    if (static_cast<int>(order.size()) > seed_budget) {
        s.result.notes.push_back(
            "seed enumeration truncated: profiling " +
            std::to_string(seed_budget) + " of " +
            std::to_string(enumerated) +
            " cut sets (round-robin across sizes)");
        order.resize(static_cast<size_t>(seed_budget));
    }

    for (const auto& combo : order) {
        if (s.budgetLeft() <= 0)
            break;
        SearchPoint point;
        for (int idx : combo)
            point.cutOps.push_back(
                s.ranked[static_cast<size_t>(idx)].cutOp);
        s.profile(std::move(point), "seed");
    }
}

/**
 * Rank the accepted seed candidates by predicted score and by measured
 * speedup, record both ranks on each entry, and summarize how far the
 * model's favorite landed from the measured top (the Fig. 13
 * calibration record the regression test gates on).
 */
void
calibrate(AutotuneResult& result)
{
    std::vector<int> seeds;
    for (size_t i = 0; i < result.entries.size(); ++i)
        if (result.entries[i].phase == "seed")
            seeds.push_back(static_cast<int>(i));
    result.calibration.seedCandidates = static_cast<int>(seeds.size());
    if (seeds.empty())
        return;

    auto rank_by = [&](auto better, auto assign) {
        std::vector<int> order = seeds;
        std::stable_sort(order.begin(), order.end(), better);
        for (size_t r = 0; r < order.size(); ++r)
            assign(result.entries[static_cast<size_t>(order[r])],
                   static_cast<int>(r));
    };
    rank_by(
        [&](int a, int b) {
            return result.entries[static_cast<size_t>(a)].predictedScore >
                   result.entries[static_cast<size_t>(b)].predictedScore;
        },
        [](AutotuneEntry& e, int r) { e.predictedRank = r; });
    rank_by(
        [&](int a, int b) {
            return result.entries[static_cast<size_t>(a)].trainingSpeedup >
                   result.entries[static_cast<size_t>(b)].trainingSpeedup;
        },
        [](AutotuneEntry& e, int r) { e.measuredRank = r; });

    double displacement = 0;
    for (int i : seeds) {
        const AutotuneEntry& e = result.entries[static_cast<size_t>(i)];
        displacement += std::abs(e.predictedRank - e.measuredRank);
        if (e.predictedRank == 0)
            result.calibration.predictedTop1MeasuredRank = e.measuredRank;
    }
    result.calibration.meanRankDisplacement =
        displacement / static_cast<double>(seeds.size());
}

/**
 * Propose steered moves around the incumbent, best-signal first:
 *  - deepen queues when the profile shows a producer blocking on a
 *    full ring (the queue feeding the most enq-blocked stage);
 *  - replicate the stage with the largest stall share (distribute
 *    boundary = the cut op that begins it);
 *  - perturb the cut set: add the best unused ranked cut, swap the
 *    weakest current cut for it, or drop the weakest cut.
 */
std::vector<std::pair<SearchPoint, std::string>>
proposeMoves(const Search& s)
{
    std::vector<std::pair<SearchPoint, std::string>> moves;
    const SearchPoint& inc = s.result.bestPoint;
    const CandidateProfile& prof = s.bestProfile;

    // Queue deepening (needs a backpressure signal + headroom).
    int depth = inc.queueDepth > 0 ? inc.queueDepth
                                   : s.opts.profilerQueueDepth;
    if (prof.hottestEnqQueue >= 0 && prof.hottestEnqBlocks > 0 &&
        s.opts.maxQueueDepth > depth) {
        SearchPoint p = inc;
        p.queueDepth = std::min(depth * 2, s.opts.maxQueueDepth);
        moves.emplace_back(std::move(p), "deepen-queue");
    }

    // Replication of the measured-hottest stage. Stage 0 produces the
    // stream, so there is no upstream edge to distribute over it.
    if (prof.hottestStallStage > 0 &&
        prof.hottestStallStage <=
            static_cast<int>(inc.cutOps.size()) &&
        inc.replicas < s.opts.maxReplicas) {
        SearchPoint p = inc;
        p.replicas = inc.replicas * 2;
        if (p.replicas > s.opts.maxReplicas)
            p.replicas = s.opts.maxReplicas;
        p.distributeBoundaryOp =
            inc.cutOps[static_cast<size_t>(prof.hottestStallStage - 1)];
        moves.emplace_back(std::move(p), "replicate");
    }

    // Cut-set perturbations from the ranked list.
    std::set<int> used(inc.cutOps.begin(), inc.cutOps.end());
    int best_unused = -1;
    for (const auto& cand : s.ranked) {
        if (used.count(cand.cutOp) == 0) {
            best_unused = cand.cutOp;
            break;
        }
    }
    int weakest = -1;
    double weakest_score = 0;
    for (int cut : inc.cutOps) {
        auto it = s.scoreOf.find(cut);
        double sc = it != s.scoreOf.end() ? it->second : 0;
        if (weakest < 0 || sc < weakest_score) {
            weakest = cut;
            weakest_score = sc;
        }
    }

    if (best_unused >= 0 &&
        static_cast<int>(inc.cutOps.size()) + 2 <= s.opts.maxThreads) {
        SearchPoint p = inc;
        p.cutOps.push_back(best_unused);
        moves.emplace_back(std::move(p), "add-cut");
    }
    if (best_unused >= 0 && weakest >= 0) {
        SearchPoint p = inc;
        std::replace(p.cutOps.begin(), p.cutOps.end(), weakest,
                     best_unused);
        moves.emplace_back(std::move(p), "swap-cut");
    }
    if (weakest >= 0 && inc.cutOps.size() > 1) {
        SearchPoint p = inc;
        p.cutOps.erase(
            std::remove(p.cutOps.begin(), p.cutOps.end(), weakest),
            p.cutOps.end());
        moves.emplace_back(std::move(p), "drop-cut");
    }
    return moves;
}

} // namespace

AutotuneResult
autotuneMeasured(const ir::Function& fn, const AutotuneOptions& opts,
                 const CandidateEvaluator& evaluate)
{
    Search s(fn, opts, evaluate);
    s.ranked = rankCutPoints(fn);
    for (const auto& cand : s.ranked) {
        auto [it, fresh] = s.scoreOf.emplace(cand.cutOp, cand.score);
        if (!fresh)
            it->second = std::max(it->second, cand.score);
    }

    // Reserve part of the budget for refinement so a large enumeration
    // cannot starve the measured feedback loop entirely.
    int reserve = opts.refineRounds > 0
                      ? std::min(opts.maxCandidates / 4,
                                 6 * opts.refineRounds)
                      : 0;
    profileSeeds(s, std::max(1, opts.maxCandidates - reserve));
    calibrate(s.result);

    for (int round = 0;
         round < opts.refineRounds && s.budgetLeft() > 0 &&
         s.result.best.pipeline != nullptr;
         ++round) {
        double before = s.result.bestTrainingSpeedup;
        for (auto& [point, phase] : proposeMoves(s)) {
            if (s.budgetLeft() <= 0)
                break;
            s.profile(std::move(point), phase);
        }
        if (s.result.bestTrainingSpeedup <= before) {
            s.result.notes.push_back(
                "refinement converged after round " +
                std::to_string(round + 1) + " (best " +
                describeCuts(s.result.bestPoint) + ")");
            break;
        }
    }
    return std::move(s.result);
}

} // namespace phloem::comp
