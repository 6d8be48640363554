/**
 * @file
 * phloem-fuzz: deterministic differential fuzzing of the Phloem stack.
 *
 * Generates seeded random mini-C kernels, compiles them through the full
 * pass pipeline, and runs each through three executors — serial
 * reference, cycle simulator, native runtime — demanding bit-identical
 * memory images (see src/testing/). Every case is a pure function of a
 * 64-bit seed: a failure report prints the seed, and
 * `phloem-fuzz --seed=S` replays it exactly.
 *
 * Modes:
 *   phloem-fuzz --cases=500 [--base-seed=B]   random sweep (default)
 *   phloem-fuzz --seed=S [--verbose]          replay one case
 *   phloem-fuzz --corpus                      replay the regression corpus
 *   phloem-fuzz --smoke                       corpus + bounded sweep (CI)
 *   phloem-fuzz --inject --seed=S             shrinker self-test: corrupt
 *                                             the native image, shrink
 *   phloem-fuzz --scan=N                      print per-case structure
 *                                             (for corpus curation)
 *
 * Exit status: 0 = all cases passed, 1 = at least one finding,
 * 2 = usage error.
 */

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "testing/corpus.h"
#include "testing/oracle.h"
#include "testing/progen.h"
#include "testing/shrink.h"

namespace {

using namespace phloem;

void
usage(FILE* to)
{
    std::fprintf(
        to,
        "usage: phloem-fuzz [mode] [options]\n"
        "  --cases=N       random cases to run (default 500)\n"
        "  --base-seed=B   base seed for the sweep (default 1)\n"
        "  --seed=S        replay exactly one case (hex ok)\n"
        "  --corpus        replay the checked-in regression corpus\n"
        "  --smoke         corpus + bounded sweep (the CI configuration)\n"
        "  --inject        corrupt the native image (shrinker self-test)\n"
        "  --no-shrink     report failures without minimizing them\n"
        "  --scan=N        print per-case structure for corpus curation\n"
        "  --dump-ir       with --seed: print the compiled pipeline IR\n"
        "  --verbose       print program source and knobs per case\n");
}

/** Strict integer parse: the whole operand must be a number. */
bool
parseU64(const char* s, uint64_t* out)
{
    if (s == nullptr || *s == '\0')
        return false;
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 0);
    if (errno != 0 || end == s || *end != '\0')
        return false;
    *out = static_cast<uint64_t>(v);
    return true;
}

struct Options
{
    uint64_t cases = 500;
    uint64_t baseSeed = 1;
    uint64_t seed = 0;
    bool haveSeed = false;
    bool corpus = false;
    bool smoke = false;
    bool inject = false;
    bool shrink = true;
    uint64_t scan = 0;
    bool dumpIr = false;
    bool verbose = false;
};

void
printCase(const fuzz::FuzzCase& fc)
{
    std::printf("    knobs: %s\n", fc.knobs.describe().c_str());
    std::printf("--- source -------------------------------------------\n"
                "%s"
                "------------------------------------------------------\n",
                fc.source().c_str());
}

/**
 * Run one case; on a finding, print the replay line, optionally shrink,
 * and print the minimized program. Returns the oracle's result.
 */
fuzz::OracleResult
runOne(const fuzz::FuzzCase& fc, const Options& opt)
{
    fuzz::OracleOptions oo;
    oo.injectDivergence = opt.inject;
    fuzz::OracleResult r = fuzz::runCase(fc, oo);
    if (opt.verbose) {
        std::printf("  seed 0x%016" PRIx64 ": %s%s%s\n", fc.seed,
                    fuzz::verdictName(r.verdict),
                    r.detail.empty() ? "" : " — ", r.detail.c_str());
        printCase(fc);
    }
    if (r.ok())
        return r;

    std::printf("\nFAIL seed 0x%016" PRIx64 " [%s]\n  %s\n"
                "  replay: phloem-fuzz --seed=0x%" PRIx64 "%s\n",
                fc.seed, fuzz::verdictName(r.verdict), r.detail.c_str(),
                fc.seed, opt.inject ? " --inject" : "");
    for (const auto& n : r.notes)
        std::printf("  note: %s\n", n.c_str());
    if (!opt.verbose)
        printCase(fc);

    if (opt.shrink) {
        std::printf("  shrinking...\n");
        fuzz::ShrinkResult sr = fuzz::shrinkCase(fc, oo);
        std::printf("  reduced to %d statement%s after %d oracle runs "
                    "[%s] %s\n",
                    sr.statements, sr.statements == 1 ? "" : "s",
                    sr.attempts,
                    fuzz::verdictName(sr.finalResult.verdict),
                    sr.finalResult.detail.c_str());
        printCase(sr.reduced);
    }
    return r;
}

int
sweep(uint64_t base, uint64_t cases, const Options& opt)
{
    uint64_t failures = 0, rejects = 0, replicated = 0;
    for (uint64_t i = 0; i < cases; ++i) {
        uint64_t seed = fuzz::caseSeed(base, i);
        fuzz::FuzzCase fc = fuzz::generateCase(seed);
        fuzz::OracleResult r = runOne(fc, opt);
        if (!r.ok())
            ++failures;
        else if (r.verdict == fuzz::Verdict::kCompileReject)
            ++rejects;
        if (fc.program.replicated)
            ++replicated;
        if ((i + 1) % 100 == 0)
            std::printf("  ... %" PRIu64 "/%" PRIu64 " cases, %" PRIu64
                        " failure%s\n",
                        i + 1, cases, failures, failures == 1 ? "" : "s");
    }
    std::printf("%" PRIu64 " case%s (base seed 0x%" PRIx64 "): %" PRIu64
                " failure%s, %" PRIu64 " compile-reject%s, %" PRIu64
                " replicated\n",
                cases, cases == 1 ? "" : "s", base, failures,
                failures == 1 ? "" : "s", rejects,
                rejects == 1 ? "" : "s", replicated);
    return failures == 0 ? 0 : 1;
}

int
replayCorpus(const Options& opt)
{
    int failures = 0;
    for (const auto& entry : fuzz::kRegressionCorpus) {
        std::printf("corpus seed 0x%016" PRIx64 " (%s)\n", entry.seed,
                    entry.note);
        fuzz::FuzzCase fc = fuzz::generateCase(entry.seed);
        if (!runOne(fc, opt).ok())
            ++failures;
    }
    std::printf("corpus: %zu seed%s, %d failure%s\n",
                std::size(fuzz::kRegressionCorpus),
                std::size(fuzz::kRegressionCorpus) == 1 ? "" : "s",
                failures, failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}

int
scan(uint64_t base, uint64_t cases)
{
    for (uint64_t i = 0; i < cases; ++i) {
        uint64_t seed = fuzz::caseSeed(base, i);
        fuzz::FuzzCase fc = fuzz::generateCase(seed);
        fuzz::OracleResult r = fuzz::runCase(fc);
        bool inner = fc.source().find("for (int k") != std::string::npos;
        std::printf("0x%016" PRIx64 " %-14s stages=%d %s%s%s\n", seed,
                    fuzz::verdictName(r.verdict), r.stages,
                    fc.program.replicated
                        ? (r.replicationEngaged ? "replicated "
                                                : "repl-fallback ")
                        : "",
                    inner ? "inner-loop " : "",
                    fc.knobs.describe().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto eatValue = [&](const char* flag, uint64_t* out) -> int {
            size_t len = std::strlen(flag);
            if (arg.compare(0, len, flag) != 0)
                return 0;  // not this flag
            const char* val = nullptr;
            if (arg.size() > len && arg[len] == '=') {
                val = arg.c_str() + len + 1;
            } else if (arg.size() == len) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s requires a value\n", flag);
                    return -1;
                }
                val = argv[++i];
            } else {
                return 0;
            }
            if (!parseU64(val, out)) {
                std::fprintf(stderr, "bad value for %s: '%s'\n", flag,
                             val);
                return -1;
            }
            return 1;
        };

        int rc;
        if ((rc = eatValue("--cases", &opt.cases)) != 0) {
            if (rc < 0)
                return 2;
        } else if ((rc = eatValue("--base-seed", &opt.baseSeed)) != 0) {
            if (rc < 0)
                return 2;
        } else if ((rc = eatValue("--seed", &opt.seed)) != 0) {
            if (rc < 0)
                return 2;
            opt.haveSeed = true;
        } else if ((rc = eatValue("--scan", &opt.scan)) != 0) {
            if (rc < 0)
                return 2;
        } else if (arg == "--corpus") {
            opt.corpus = true;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--inject") {
            opt.inject = true;
        } else if (arg == "--no-shrink") {
            opt.shrink = false;
        } else if (arg == "--dump-ir") {
            opt.dumpIr = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (opt.scan > 0)
        return scan(opt.baseSeed, opt.scan);

    if (opt.haveSeed) {
        fuzz::FuzzCase fc = fuzz::generateCase(opt.seed);
        if (opt.dumpIr) {
            printCase(fc);
            std::printf("--- pipeline -----------------------------------"
                        "------\n%s\n",
                        fuzz::pipelineDump(fc).c_str());
            return 0;
        }
        Options one = opt;
        one.verbose = true;
        return runOne(fc, one).ok() ? 0 : 1;
    }

    if (opt.corpus)
        return replayCorpus(opt);

    if (opt.smoke) {
        int rc = replayCorpus(opt);
        int rs = sweep(fuzz::kSmokeBaseSeed, fuzz::kSmokeCases, opt);
        return rc != 0 || rs != 0 ? 1 : 0;
    }

    return sweep(opt.baseSeed, opt.cases, opt);
}
