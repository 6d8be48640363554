/**
 * @file
 * CI smoke coverage for the differential fuzzing subsystem.
 *
 * Replays the checked-in regression corpus (every seed whose divergence
 * has been fixed) and a bounded pseudo-random sweep through the
 * three-way oracle, plus small determinism/shrinker sanity checks. The
 * whole file is sized to stay around a minute even under TSan or
 * ASan+UBSan; the open-ended hunting runs live in tools/phloem-fuzz.
 */

#include <gtest/gtest.h>

#include "testing/corpus.h"
#include "testing/oracle.h"
#include "testing/progen.h"
#include "testing/shrink.h"

namespace phloem::fuzz {
namespace {

/** A corpus seed must never regress once its bug is fixed. */
TEST(FuzzSmoke, RegressionCorpusReplaysClean)
{
    for (const CorpusEntry& entry : kRegressionCorpus) {
        FuzzCase fc = generateCase(entry.seed);
        OracleResult r = runCase(fc);
        EXPECT_TRUE(r.ok())
            << "corpus seed 0x" << std::hex << entry.seed << std::dec
            << " (" << entry.note << ") regressed: "
            << verdictName(r.verdict) << ": " << r.detail;
    }
}

/** Bounded random sweep: the CI analogue of `phloem-fuzz --smoke`. */
TEST(FuzzSmoke, BoundedRandomSweepPasses)
{
    int rejects = 0;
    for (int i = 0; i < kSmokeCases; ++i) {
        uint64_t seed = caseSeed(kSmokeBaseSeed, i);
        FuzzCase fc = generateCase(seed);
        OracleResult r = runCase(fc);
        EXPECT_TRUE(r.ok())
            << "seed 0x" << std::hex << seed << std::dec << ": "
            << verdictName(r.verdict) << ": " << r.detail
            << "\nreplay: phloem-fuzz --seed=0x" << std::hex << seed;
        if (r.verdict == Verdict::kCompileReject)
            ++rejects;
    }
    // The sweep must be evidence, not vacuous: most cases really run.
    EXPECT_LT(rejects, kSmokeCases / 4);
}

/** The same seed must yield byte-identical source and knobs. */
TEST(FuzzSmoke, GenerationIsDeterministic)
{
    const uint64_t seeds[] = {0x1ull, 0xdeadbeefull, kSmokeBaseSeed};
    for (uint64_t seed : seeds) {
        FuzzCase a = generateCase(seed);
        FuzzCase b = generateCase(seed);
        EXPECT_EQ(a.source(), b.source());
        EXPECT_EQ(a.knobs.describe(), b.knobs.describe());
    }
}

/** Replaying a failing case twice must reach the same verdict. */
TEST(FuzzSmoke, InjectedDivergenceIsStable)
{
    OracleOptions opts;
    opts.injectDivergence = true;
    FuzzCase fc = generateCase(caseSeed(kSmokeBaseSeed, 3));
    OracleResult first = runCase(fc, opts);
    ASSERT_FALSE(first.ok()) << "injection did not produce a divergence";
    OracleResult again = runCase(fc, opts);
    EXPECT_EQ(first.verdict, again.verdict);
}

/** The shrinker must reduce an injected divergence to a tiny program. */
TEST(FuzzSmoke, ShrinkerMinimizesInjectedDivergence)
{
    OracleOptions opts;
    opts.injectDivergence = true;
    FuzzCase fc = generateCase(caseSeed(kSmokeBaseSeed, 3));
    OracleResult r = runCase(fc, opts);
    ASSERT_FALSE(r.ok());
    ShrinkResult s = shrinkCase(fc, opts, /*maxAttempts=*/200);
    EXPECT_EQ(s.finalResult.verdict, r.verdict);
    EXPECT_LE(s.statements, 10)
        << "reduced program still has " << s.statements
        << " statements:\n" << s.reduced.source();
}

} // namespace
} // namespace phloem::fuzz
