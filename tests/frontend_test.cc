/**
 * @file
 * Unit tests for the mini-C frontend: lexing, parsing, lowering
 * semantics (checked by executing the lowered IR), and pragma capture.
 */

#include <gtest/gtest.h>

#include <string>

#include "compiler/compiler.h"
#include "frontend/frontend.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "ir/verifier.h"
#include "sim/machine.h"

namespace phloem {
namespace {

/** Compile + run a kernel serially and return the named output array. */
sim::ArrayBuffer*
runKernel(const std::string& src, sim::Binding& binding)
{
    auto kernel = fe::compileKernel(src);
    EXPECT_TRUE(ir::verify(*kernel.fn).empty());
    sim::Machine m(sim::SysConfig{});
    auto stats = m.runSerial(*kernel.fn, binding);
    EXPECT_FALSE(stats.deadlock);
    return binding.array("out");
}

/** `s` repeated n times. */
std::string
repeat(const std::string& s, int n)
{
    std::string out;
    out.reserve(s.size() * static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        out += s;
    return out;
}

/** Expect `fn` to throw a frontend error that names the nesting limit. */
template <typename F>
void
expectTooDeep(F&& fn, const char* what)
{
    const std::string limit =
        "deeper than " + std::to_string(fe::kMaxNesting) + " levels";
    try {
        fn();
        ADD_FAILURE() << what << ": accepted";
    } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find(limit), std::string::npos)
            << what << ": " << e.what();
    }
}

TEST(Lexer, TokenKinds)
{
    auto toks = fe::lex("for (int i = 0; i < n; i++) { a[i] += 2.5; }");
    ASSERT_GT(toks.size(), 10u);
    EXPECT_EQ(toks[0].kind, fe::Tok::kFor);
    EXPECT_EQ(toks[1].kind, fe::Tok::kLParen);
    EXPECT_EQ(toks[2].kind, fe::Tok::kInt);
    bool saw_float = false, saw_pluseq = false, saw_plusplus = false;
    for (const auto& t : toks) {
        if (t.kind == fe::Tok::kFloatLit) {
            saw_float = true;
            EXPECT_DOUBLE_EQ(t.floatValue, 2.5);
        }
        if (t.kind == fe::Tok::kPlusAssign)
            saw_pluseq = true;
        if (t.kind == fe::Tok::kPlusPlus)
            saw_plusplus = true;
    }
    EXPECT_TRUE(saw_float);
    EXPECT_TRUE(saw_pluseq);
    EXPECT_TRUE(saw_plusplus);
}

TEST(Lexer, PragmaAndComments)
{
    auto toks = fe::lex("// line comment\n#pragma phloem\n/* block */ int");
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, fe::Tok::kPragma);
    EXPECT_EQ(toks[0].text, "phloem");
    EXPECT_EQ(toks[1].kind, fe::Tok::kInt);
}

TEST(Parser, RejectsSyntaxErrors)
{
    EXPECT_THROW(fe::parse("void f( { }"), std::exception);
    EXPECT_THROW(fe::parse("void f() { int x = ; }"), std::exception);
    EXPECT_THROW(fe::parse("void f() { if x { } }"), std::exception);

    // Hostile nesting, 200k levels deep: each of these used to overflow
    // the parser's stack. The `+` chain is built by a loop, not by
    // recursion, but its left-deep tree is just as tall.
    constexpr int kDeep = 200000;
    const std::string head =
        "void k(const long* restrict a, long* restrict out, int n) {\n";
    const std::pair<const char*, std::string> deep[] = {
        {"parens", head + "out[0] = " + repeat("(", kDeep) + "1" +
                       repeat(")", kDeep) + ";\n}"},
        {"braces", head + repeat("{", kDeep) + "out[0] = 1;" +
                       repeat("}", kDeep) + "\n}"},
        {"if", head + repeat("if (n) ", kDeep) + "out[0] = 1;\n}"},
        {"unary minus", head + "out[0] = " + repeat("- ", kDeep) + "1;\n}"},
        {"index", head + "out[0] = " + repeat("a[", kDeep) + "0" +
                      repeat("]", kDeep) + ";\n}"},
        {"plus chain",
         head + "out[0] = 1" + repeat("+1", kDeep - 1) + ";\n}"},
    };
    for (const auto& [what, src] : deep)
        expectTooDeep([&src = src] { fe::parse(src); }, what);

    // Just under the limit still compiles and runs: a chain and a block
    // nest, each a few levels short of kMaxNesting.
    constexpr int kNearLimit = fe::kMaxNesting - 8;
    const std::string near = "void k(long* restrict out, int n) {\n"
                             "out[0] = 1" +
                             repeat("+1", kNearLimit - 1) + ";\n" +
                             repeat("{", kNearLimit) + "out[1] = 2;" +
                             repeat("}", kNearLimit) + "\n}";
    sim::Binding b;
    b.makeArray("out", ir::ElemType::kI64, 2);
    b.setScalarInt("n", 0);
    auto* out = runKernel(near, b);
    EXPECT_EQ(out->atInt(0), kNearLimit);
    EXPECT_EQ(out->atInt(1), 2);
}

TEST(Lowering, ArithmeticAndPrecedence)
{
    const char* src = R"(
void k(long* restrict out, int n) {
    out[0] = 2 + 3 * 4;
    out[1] = (2 + 3) * 4;
    out[2] = 10 % 4 + (1 << 4);
    out[3] = -7 / 2;
    out[4] = 100 >> 2;
    out[5] = (5 & 3) | (8 ^ 1);
    out[6] = 1 < 2;
    out[7] = 3 == 3;
    out[8] = !(4 != 4);
    out[9] = ~0 & 255;
})";
    sim::Binding b;
    b.makeArray("out", ir::ElemType::kI64, 10);
    b.setScalarInt("n", 0);
    auto* out = runKernel(src, b);
    EXPECT_EQ(out->atInt(0), 14);
    EXPECT_EQ(out->atInt(1), 20);
    EXPECT_EQ(out->atInt(2), 18);
    EXPECT_EQ(out->atInt(3), -3);
    EXPECT_EQ(out->atInt(4), 25);
    EXPECT_EQ(out->atInt(5), 1 | 9);
    EXPECT_EQ(out->atInt(6), 1);
    EXPECT_EQ(out->atInt(7), 1);
    EXPECT_EQ(out->atInt(8), 1);
    EXPECT_EQ(out->atInt(9), 255);
}

TEST(Lowering, ShortCircuitGuardsMemory)
{
    // The right operand indexes with -1 when x == 0; && must not
    // evaluate it (an unguarded load would trip the bounds check).
    const char* src = R"(
void k(const int* restrict a, long* restrict out, int n) {
    int hits = 0;
    for (int i = 0; i < n; i++) {
        int x = a[i];
        if (x > 0 && a[x - 1] > 10) {
            hits = hits + 1;
        }
    }
    out[0] = hits;
})";
    sim::Binding b;
    auto* a = b.makeArray("a", ir::ElemType::kI32, 4);
    a->setInt(0, 0);
    a->setInt(1, 1);   // a[0] = 0 -> not > 10
    a->setInt(2, 3);   // a[2] = 3 -> checks a[2] = 3 -> no
    a->setInt(3, 2);   // checks a[1] = 1 -> no
    b.makeArray("out", ir::ElemType::kI64, 1);
    b.setScalarInt("n", 4);
    auto* out = runKernel(src, b);
    EXPECT_EQ(out->atInt(0), 0);
}

TEST(Lowering, WhileBreakContinue)
{
    const char* src = R"(
void k(long* restrict out, int n) {
    int i = 0;
    int sum = 0;
    while (1) {
        i = i + 1;
        if (i > n) break;
        if (i % 2 == 0) continue;
        sum = sum + i;
    }
    out[0] = sum;
})";
    sim::Binding b;
    b.makeArray("out", ir::ElemType::kI64, 1);
    b.setScalarInt("n", 9);
    auto* out = runKernel(src, b);
    EXPECT_EQ(out->atInt(0), 1 + 3 + 5 + 7 + 9);
}

TEST(Lowering, DoublesAndCasts)
{
    const char* src = R"(
void k(double* restrict out, int n) {
    double x = 1.5;
    out[0] = x * 2.0 + (double) n;
    out[1] = fabs(0.0 - 3.25);
    out[2] = min(2.5, 1.25);
    int t = (int) 3.9;
    out[3] = (double) t;
})";
    auto kernel = fe::compileKernel(src);
    sim::Binding b;
    auto* out = b.makeArray("out", ir::ElemType::kF64, 4);
    b.setScalarInt("n", 4);
    sim::Machine m(sim::SysConfig{});
    m.runSerial(*kernel.fn, b);
    EXPECT_DOUBLE_EQ(out->atDouble(0), 7.0);
    EXPECT_DOUBLE_EQ(out->atDouble(1), 3.25);
    EXPECT_DOUBLE_EQ(out->atDouble(2), 1.25);
    EXPECT_DOUBLE_EQ(out->atDouble(3), 3.0);
}

TEST(Lowering, NestedIndexing)
{
    const char* src = R"(
void k(const int* restrict a, const int* restrict b2,
       long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        out[i] = b2[a[i]];
    }
})";
    sim::Binding b;
    auto* a = b.makeArray("a", ir::ElemType::kI32, 4);
    auto* b2 = b.makeArray("b2", ir::ElemType::kI32, 4);
    for (int i = 0; i < 4; ++i) {
        a->setInt(i, 3 - i);
        b2->setInt(i, i * 100);
    }
    b.makeArray("out", ir::ElemType::kI64, 4);
    b.setScalarInt("n", 4);
    auto* out = runKernel(src, b);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out->atInt(i), (3 - i) * 100);
}

TEST(Lowering, IntMaxConstant)
{
    const char* src = R"(
void k(long* restrict out, int n) {
    out[0] = INT_MAX;
    out[1] = INT_MIN;
})";
    sim::Binding b;
    b.makeArray("out", ir::ElemType::kI64, 2);
    b.setScalarInt("n", 0);
    auto* out = runKernel(src, b);
    EXPECT_EQ(out->atInt(0), 2147483647);
    EXPECT_EQ(out->atInt(1), -2147483648LL);
}

TEST(Pragmas, CapturedOnFunctionAndStatements)
{
    const char* src = R"(
#pragma phloem
#pragma replicate 4
void k(const int* restrict a, long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        int x = a[i];
#pragma decouple
        out[i] = x + 1;
    }
})";
    auto kernel = fe::compileKernel(src);
    EXPECT_TRUE(kernel.ann.phloem);
    EXPECT_EQ(kernel.ann.replicas, 4);
    ASSERT_EQ(kernel.ann.decoupleOps.size(), 1u);
}

TEST(Pragmas, ReplicateCountIsBounded)
{
    // The count comes from untrusted source (phloemd requests): it must
    // neither overflow an int nor reach the backends past kMaxReplicas.
    auto src = [](const std::string& count) {
        return "#pragma replicate(" + count + ")\n"
               "void k(long* restrict out, int n) { out[0] = n; }\n";
    };
    EXPECT_EQ(fe::compileKernel(src(std::to_string(fe::kMaxReplicas)))
                  .ann.replicas,
              fe::kMaxReplicas);
    const std::string limit =
        "more than " + std::to_string(fe::kMaxReplicas) + " replicas";
    for (const char* count : {"99999999999", "100000", "257"}) {
        try {
            fe::compileKernel(src(count));
            ADD_FAILURE() << count << ": accepted";
        } catch (const std::exception& e) {
            EXPECT_NE(std::string(e.what()).find(limit), std::string::npos)
                << count << ": " << e.what();
        }
    }
}

TEST(Pragmas, AliasClasses)
{
    const char* src = R"(
void k(int* restrict a, int* b, int* c, int n) {
    a[0] = 1;
    b[0] = 2;
    c[0] = 3;
})";
    auto kernel = fe::compileKernel(src);
    const auto& arrays = kernel.fn->arrays;
    ASSERT_EQ(arrays.size(), 3u);
    // restrict a: unique class; b and c (no restrict) share a class.
    EXPECT_NE(arrays[0].aliasClass, arrays[1].aliasClass);
    EXPECT_EQ(arrays[1].aliasClass, arrays[2].aliasClass);
}

TEST(Builtins, AtomicsAndSwap)
{
    const char* src = R"(
void k(int* restrict a, int* restrict b2, long* restrict out, int n) {
    int old1 = phloem_atomic_min(a, 0, 5);
    int old2 = phloem_atomic_add(a, 1, 10);
    long old3 = phloem_atomic_or(out, 2, 12);
    phloem_swap(a, b2);
    out[0] = old1;
    out[1] = old2;
    a[0] = 77;
})";
    auto kernel = fe::compileKernel(src);
    sim::Binding b;
    auto* a = b.makeArray("a", ir::ElemType::kI32, 3);
    auto* b2 = b.makeArray("b2", ir::ElemType::kI32, 3);
    a->setInt(0, 9);
    a->setInt(1, 1);
    auto* out = b.makeArray("out", ir::ElemType::kI64, 3);
    out->setInt(2, 3);
    b.setScalarInt("n", 0);
    sim::Machine m(sim::SysConfig{});
    m.runSerial(*kernel.fn, b);
    EXPECT_EQ(out->atInt(0), 9);   // old value before min
    EXPECT_EQ(out->atInt(1), 1);   // old value before add
    EXPECT_EQ(a->atInt(0), 5);     // min applied
    EXPECT_EQ(a->atInt(1), 11);    // add applied
    EXPECT_EQ(out->atInt(2), 3 | 12);
    EXPECT_EQ(b2->atInt(0), 77);   // swap redirected the store
}

TEST(Inlining, HelperCallsAreFlattened)
{
    // The paper's future work (Sec. IV-A): calls to helpers defined in
    // the same unit inline into the kernel so decoupling sees one
    // procedure.
    const char* src = R"(
void relax(int* restrict dist, const int* restrict edges,
           int e, int d) {
    int ngh = edges[e];
    if (d < dist[ngh]) {
        dist[ngh] = d;
    }
}

#pragma phloem
void kernel(const int* restrict edges, int* restrict dist, int n) {
    for (int e = 0; e < n; e++) {
        relax(dist, edges, e, 7);
    }
})";
    auto kernels = fe::compileC(src);
    const ir::Function* kernel = nullptr;
    for (const auto& k : kernels)
        if (k.fn->name == "kernel")
            kernel = k.fn.get();
    ASSERT_NE(kernel, nullptr);

    sim::Binding b;
    auto* edges = b.makeArray("edges", ir::ElemType::kI32, 8);
    auto* dist = b.makeArray("dist", ir::ElemType::kI32, 8);
    for (int i = 0; i < 8; ++i) {
        edges->setInt(i, 7 - i);
        dist->setInt(i, i);
    }
    b.setScalarInt("n", 8);
    sim::Machine m(sim::SysConfig{});
    auto stats = m.runSerial(*kernel, b);
    EXPECT_FALSE(stats.deadlock);
    // relax(dist, edges, e, 7): dist[edges[e]] = min(old, 7)-ish.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(dist->atInt(i), std::min<int64_t>(i, 7));
}

TEST(Inlining, LocalsAreRenamedApart)
{
    const char* src = R"(
void bump(long* restrict out, int i) {
    int t = i + 1;
    out[i] = t;
}

void kernel(long* restrict out, int n) {
    int t = 100;
    for (int i = 0; i < n; i++) {
        bump(out, i);
    }
    out[n] = t;
})";
    auto kernels = fe::compileC(src);
    const ir::Function* kernel = nullptr;
    for (const auto& k : kernels)
        if (k.fn->name == "kernel")
            kernel = k.fn.get();
    ASSERT_NE(kernel, nullptr);
    sim::Binding b;
    auto* out = b.makeArray("out", ir::ElemType::kI64, 5);
    b.setScalarInt("n", 4);
    sim::Machine m(sim::SysConfig{});
    m.runSerial(*kernel, b);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out->atInt(i), i + 1);
    EXPECT_EQ(out->atInt(4), 100);  // the caller's t was not clobbered
}

TEST(Inlining, ComposedNestingPastTheLimitIsAnError)
{
    // Every function nests 250 blocks deep, under the limit on its own;
    // inlining the 60-deep call chain would compose 15k levels.
    std::string src = "#pragma phloem\n";
    constexpr int kFns = 60, kBlocks = 250;
    for (int f = 0; f < kFns; ++f) {
        std::string call = f + 1 < kFns ? "f" + std::to_string(f + 1) +
                                              "(out, n);"
                                        : "out[0] = 1;";
        src += "void f" + std::to_string(f) +
               "(long* restrict out, int n) {\n" + repeat("{", kBlocks) +
               call + repeat("}", kBlocks) + "\n}\n";
    }
    EXPECT_NO_THROW(fe::parse(src));
    expectTooDeep([&] { fe::compileC(src); }, "inlined chain");
}

TEST(Inlining, InlinedSizePastTheLimitIsAnError)
{
    const std::string limit =
        "past " + std::to_string(fe::kMaxStatements) + " statements";
    auto expectTooBig = [&](const std::string& src, const char* what) {
        try {
            fe::compileC(src);
            ADD_FAILURE() << what << ": accepted";
        } catch (const std::exception& e) {
            EXPECT_NE(std::string(e.what()).find(limit), std::string::npos)
                << what << ": " << e.what();
        }
    };

    // Each helper calls the previous one twice: ten levels of ~60 bytes
    // each would inline to thousands of statements.
    std::string chain =
        "#pragma phloem\nvoid f0(long* restrict out, int n) { out[0] = 1; }\n";
    for (int k = 1; k < 10; ++k)
        chain += "void f" + std::to_string(k) +
                 "(long* restrict out, int n) { f" + std::to_string(k - 1) +
                 "(out, n); f" + std::to_string(k - 1) + "(out, n); }\n";
    expectTooBig(chain, "doubling chain");

    // A function with no calls is bounded the same way.
    auto straight = [](int n) {
        std::string src = "#pragma phloem\n"
                          "void s(long* restrict out, int n) {\n"
                          "int x0 = n;\n";
        for (int i = 1; i < n; ++i)
            src += "int x" + std::to_string(i) + " = x" +
                   std::to_string(i - 1) + " + 1;\n";
        return src + "out[0] = x" + std::to_string(n - 1) + ";\n}\n";
    };
    expectTooBig(straight(2000), "2000 statements");
    EXPECT_NO_THROW(fe::compileC(straight(500)));
}

TEST(Inlining, InlinedKernelStillPipelines)
{
    const char* src = R"(
void work_one(const int* restrict b, long* restrict out, int x, int i) {
    int y = b[x];
    out[i] = phloem_work(y, 10);
}

#pragma phloem
void kernel(const int* restrict a, const int* restrict b,
            long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        int x = a[i];
        if (x > 0) {
            work_one(b, out, x, i);
        }
    }
})";
    auto kernels = fe::compileC(src);
    const fe::CompiledKernel* kernel = nullptr;
    for (const auto& k : kernels)
        if (k.fn->name == "kernel")
            kernel = &k;
    ASSERT_NE(kernel, nullptr);
    auto res = comp::compilePipeline(*kernel->fn);
    EXPECT_TRUE(res.ok());
    EXPECT_GE(res.pipeline->stages.size(), 2u);
}

} // namespace
} // namespace phloem
