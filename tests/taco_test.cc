/**
 * @file
 * Tests for the mini-Taco frontend: expression parsing, emitted-C
 * compilation, and end-to-end correctness against the golden kernels.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "driver/experiment.h"
#include "frontend/frontend.h"
#include "ir/verifier.h"
#include "taco/taco.h"
#include "workloads/matrix.h"
#include "workloads/workload.h"

namespace phloem {
namespace {

TEST(Taco, EmitsCompilableCForAllPaperKernels)
{
    for (const auto& k : taco::paperKernels()) {
        SCOPED_TRACE(k.expression);
        auto serial = fe::compileKernel(k.source);
        EXPECT_TRUE(ir::verify(*serial.fn).empty());
        EXPECT_TRUE(serial.ann.phloem)
            << "emitted code must carry #pragma phloem";
        auto par = fe::compileKernel(k.parallelSource);
        EXPECT_TRUE(ir::verify(*par.fn).empty());
    }
}

TEST(Taco, SpmvSourceShape)
{
    auto k = taco::compileExpression("spmv", "y(i) = A(i,j) * x(j)");
    EXPECT_NE(k.source.find("A_pos"), std::string::npos);
    EXPECT_NE(k.source.find("A_crd"), std::string::npos);
    EXPECT_NE(k.source.find("x[j]"), std::string::npos);
    EXPECT_NE(k.source.find("restrict"), std::string::npos);
}

TEST(Taco, ResidualSubtracts)
{
    auto k = taco::compileExpression("res", "y(i) = b(i) - A(i,j) * x(j)");
    EXPECT_NE(k.source.find("b[i] - sum"), std::string::npos);
}

TEST(Taco, MtmulScattersAlongColumns)
{
    auto k = taco::compileExpression(
        "mt", "y(j) = alpha * A(i,j) * x(i) + beta * z(j)");
    EXPECT_NE(k.source.find("beta * z[j]"), std::string::npos);
    EXPECT_NE(k.source.find("alpha * x[i]"), std::string::npos);
}

TEST(Taco, RejectsUnsupportedExpressions)
{
    EXPECT_THROW(taco::compileExpression("bad", "y(i) ="),
                 std::exception);
    EXPECT_THROW(taco::compileExpression("bad", "y(i) = x(i) * z(i)"),
                 std::exception);
    EXPECT_THROW(taco::compileExpression("bad", "garbage"), std::exception);
    // End of input inside an index list: the parser used to keep
    // appending '\0' until the allocation failed.
    EXPECT_THROW(taco::compileExpression("bad", "y(i) = A(i,j"),
                 std::exception);
    EXPECT_THROW(taco::compileExpression("bad", "y("), std::exception);
}

TEST(Taco, PhloemcReportsMalformedExpressions)
{
    // phloemc reports a mini-Taco error and exits 1 instead of
    // aborting on the uncaught exception.
    for (const char* expr : {"garbage", "y(i) = A(i,j"}) {
        SCOPED_TRACE(expr);
        std::string cmd = std::string(PHLOEMC_PATH) + " --taco '" + expr +
                          "' > /dev/null 2>&1";
        int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
        EXPECT_EQ(WEXITSTATUS(status), 1);
    }
}

TEST(Taco, KernelsValidateOnSmallMatrix)
{
    // Run every Taco workload's serial and static-pipeline variants on
    // the (training) first input and validate against goldens.
    for (auto& w : wl::tacoWorkloads()) {
        SCOPED_TRACE(w.name);
        driver::Experiment exp(w, sim::SysConfig::scaledEval());
        const wl::Case* c = nullptr;
        for (const auto& cc : w.cases)
            if (cc.training)
                c = &cc;
        ASSERT_NE(c, nullptr);
        auto serial = exp.runSerial(*c);
        EXPECT_TRUE(serial.correct) << w.name << ": " << serial.error;
        auto compiled = exp.compileStatic();
        ASSERT_TRUE(compiled.pipeline != nullptr);
        auto pipe = exp.runPipeline(*c, *compiled.pipeline);
        EXPECT_TRUE(pipe.correct) << w.name << ": " << pipe.error;
        auto par = exp.runParallel(*c, 4);
        EXPECT_TRUE(par.correct) << w.name << ": " << par.error;
    }
}

} // namespace
} // namespace phloem
