#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "workloads/graph.h"
#include "workloads/matrix.h"

namespace perfbench {

namespace {

using phloem::ir::ElemType;
using phloem::ir::Value;
using phloem::sim::Binding;
using phloem::wl::CSRGraph;
using phloem::wl::CSRMatrix;
using phloem::wl::Variant;

constexpr int32_t kIntMax = 2147483647;

bool
checkI32(Binding& b, const char* name, const std::vector<int32_t>& ref,
         std::string* err)
{
    auto* buf = b.array(name);
    for (size_t i = 0; i < ref.size(); ++i) {
        int64_t got = buf->atInt(static_cast<int64_t>(i));
        if (got != ref[i]) {
            *err = std::string(name) + "[" + std::to_string(i) + "] = " +
                   std::to_string(got) + ", expected " +
                   std::to_string(ref[i]);
            return false;
        }
    }
    return true;
}

bool
checkF64(Binding& b, const char* name, const std::vector<double>& ref,
         double rel_tol, std::string* err)
{
    auto* buf = b.array(name);
    for (size_t i = 0; i < ref.size(); ++i) {
        double got = buf->atDouble(static_cast<int64_t>(i));
        if (std::fabs(got - ref[i]) > rel_tol * std::max(1.0, std::fabs(ref[i]))) {
            *err = std::string(name) + "[" + std::to_string(i) + "] = " +
                   std::to_string(got) + ", expected " +
                   std::to_string(ref[i]);
            return false;
        }
    }
    return true;
}

void
bindGraph(Binding& b, const CSRGraph& g)
{
    auto* nodes =
        b.makeArray("nodes", ElemType::kI32, static_cast<size_t>(g.n) + 1);
    for (int32_t v = 0; v <= g.n; ++v)
        nodes->setInt(v, g.nodes[static_cast<size_t>(v)]);
    auto* edges = b.makeArray("edges", ElemType::kI32,
                              std::max<size_t>(1, g.edges.size()));
    for (size_t e = 0; e < g.edges.size(); ++e)
        edges->setInt(static_cast<int64_t>(e), g.edges[e]);
}

/** The highest-degree vertex, as tableIVInputs() roots its graphs. */
int32_t
rootOf(const CSRGraph& g)
{
    int32_t best = 0;
    for (int32_t v = 0; v < g.n; ++v)
        if (g.degree(v) > g.degree(best))
            best = v;
    return best;
}

/** Reachability masks radii converges to (order-independent fixpoint). */
std::vector<uint64_t>
radiiMasks(const CSRGraph& g)
{
    std::vector<uint64_t> masks(static_cast<size_t>(g.n), 0);
    auto samples = phloem::wl::radiiSamples(g);
    for (size_t i = 0; i < samples.size(); ++i)
        masks[static_cast<size_t>(samples[i])] |= uint64_t{1} << i;
    for (bool changed = true; changed;) {
        changed = false;
        for (int32_t u = 0; u < g.n; ++u) {
            for (int32_t e = g.nodes[static_cast<size_t>(u)];
                 e < g.nodes[static_cast<size_t>(u) + 1]; ++e) {
                auto ngh = static_cast<size_t>(g.edges[static_cast<size_t>(e)]);
                uint64_t nw = masks[ngh] | masks[static_cast<size_t>(u)];
                if (nw != masks[ngh]) {
                    masks[ngh] = nw;
                    changed = true;
                }
            }
        }
    }
    return masks;
}

phloem::wl::Case
bfsCase(std::shared_ptr<const CSRGraph> g)
{
    int32_t root = rootOf(*g);
    auto golden = std::make_shared<std::vector<int32_t>>(
        phloem::wl::bfsGolden(*g, root));
    phloem::wl::Case c;
    c.bind = [g, root](Binding& b, int) {
        bindGraph(b, *g);
        b.makeArray("dist", ElemType::kI32, static_cast<size_t>(g->n))
            ->fillInt(kIntMax);
        b.makeArray("cur_fringe", ElemType::kI32, g->edges.size() + 1);
        b.makeArray("next_fringe", ElemType::kI32, g->edges.size() + 1);
        b.setScalarInt("n", g->n);
        b.setScalarInt("root", root);
    };
    c.check = [golden](Binding& b, Variant, std::string* err) {
        return checkI32(b, "dist", *golden, err);
    };
    return c;
}

phloem::wl::Case
ccCase(std::shared_ptr<const CSRGraph> g)
{
    auto golden = std::make_shared<std::vector<int32_t>>(
        phloem::wl::ccGolden(*g));
    phloem::wl::Case c;
    c.bind = [g](Binding& b, int) {
        bindGraph(b, *g);
        size_t fringe = g->edges.size() + static_cast<size_t>(g->n) + 1;
        auto* labels =
            b.makeArray("labels", ElemType::kI32, static_cast<size_t>(g->n));
        auto* cur = b.makeArray("cur_fringe", ElemType::kI32, fringe);
        b.makeArray("next_fringe", ElemType::kI32, fringe);
        for (int32_t v = 0; v < g->n; ++v) {
            labels->setInt(v, v);
            cur->setInt(v, v);
        }
        b.setScalarInt("n", g->n);
    };
    c.check = [golden](Binding& b, Variant, std::string* err) {
        return checkI32(b, "labels", *golden, err);
    };
    return c;
}

phloem::wl::Case
prdCase(std::shared_ptr<const CSRGraph> g)
{
    // The main suite's PageRank-Delta parameters (workload.cc).
    const double alpha = 0.85, eps = 0.02;
    const int max_iters = 8;
    auto golden = std::make_shared<std::vector<double>>(
        phloem::wl::prdGolden(*g, alpha, eps, max_iters));
    phloem::wl::Case c;
    c.bind = [g, alpha, eps, max_iters](Binding& b, int) {
        bindGraph(b, *g);
        auto n = static_cast<size_t>(g->n);
        auto* rank = b.makeArray("rank", ElemType::kF64, n);
        auto* delta = b.makeArray("delta", ElemType::kF64, n);
        auto* accum = b.makeArray("accum", ElemType::kF64, n);
        b.makeArray("receivers", ElemType::kI32, n + 1);
        auto* cur = b.makeArray("cur_fringe", ElemType::kI32, n + 1);
        b.makeArray("next_fringe", ElemType::kI32, n + 1);
        for (int32_t v = 0; v < g->n; ++v) {
            rank->setDouble(v, 1.0 - alpha);
            delta->setDouble(v, 1.0 - alpha);
            accum->setDouble(v, 0.0);
            cur->setInt(v, v);
        }
        b.setScalarInt("n", g->n);
        b.setScalarInt("max_iters", max_iters);
        b.setScalar("alpha", Value::fromDouble(alpha));
        b.setScalar("eps", Value::fromDouble(eps));
    };
    c.check = [golden](Binding& b, Variant, std::string* err) {
        return checkF64(b, "rank", *golden, 1e-12, err);
    };
    return c;
}

phloem::wl::Case
radiiCase(std::shared_ptr<const CSRGraph> g)
{
    auto golden = std::make_shared<std::vector<int32_t>>(
        phloem::wl::radiiGolden(*g));
    auto masks = std::make_shared<std::vector<uint64_t>>(radiiMasks(*g));
    auto samples = std::make_shared<std::vector<int32_t>>(
        phloem::wl::radiiSamples(*g));
    phloem::wl::Case c;
    c.bind = [g, samples](Binding& b, int) {
        bindGraph(b, *g);
        auto n = static_cast<size_t>(g->n);
        size_t fringe = g->edges.size() + n + 65;
        auto* visited = b.makeArray("visited", ElemType::kI64, n);
        auto* radii_out = b.makeArray("radii_out", ElemType::kI32, n);
        auto* cur = b.makeArray("cur_fringe", ElemType::kI32, fringe);
        b.makeArray("next_fringe", ElemType::kI32, fringe);
        radii_out->fillInt(-1);
        for (size_t i = 0; i < samples->size(); ++i) {
            int32_t s = (*samples)[i];
            visited->setInt(s, static_cast<int64_t>(uint64_t{1} << i));
            radii_out->setInt(s, 0);
            cur->setInt(static_cast<int64_t>(i), s);
        }
        b.setScalarInt("n", g->n);
        b.setScalarInt("init_size", static_cast<int64_t>(samples->size()));
    };
    c.check = [golden, masks](Binding& b, Variant, std::string* err) {
        auto* visited = b.array("visited");
        for (size_t i = 0; i < masks->size(); ++i) {
            if (static_cast<uint64_t>(visited->atInt(static_cast<int64_t>(i))) !=
                (*masks)[i]) {
                *err = "visited[" + std::to_string(i) + "] mask mismatch";
                return false;
            }
        }
        return checkI32(b, "radii_out", *golden, err);
    };
    return c;
}

phloem::wl::Case
spmmCase(std::shared_ptr<const CSRMatrix> a)
{
    auto bt = std::make_shared<const CSRMatrix>(phloem::wl::transpose(*a));
    auto golden = std::make_shared<std::vector<double>>(
        phloem::wl::spmmGolden(*a, *bt));
    phloem::wl::Case c;
    c.bind = [a, bt](Binding& b, int) {
        auto bind_csr = [&b](const std::string& prefix, const CSRMatrix& m) {
            auto* pos = b.makeArray(prefix + "_pos", ElemType::kI32,
                                    static_cast<size_t>(m.rows) + 1);
            for (int32_t i = 0; i <= m.rows; ++i)
                pos->setInt(i, m.pos[static_cast<size_t>(i)]);
            auto* crd = b.makeArray(prefix + "_crd", ElemType::kI32,
                                    std::max<size_t>(1, m.crd.size()));
            auto* val = b.makeArray(prefix + "_val", ElemType::kF64,
                                    std::max<size_t>(1, m.val.size()));
            for (size_t p = 0; p < m.crd.size(); ++p) {
                crd->setInt(static_cast<int64_t>(p), m.crd[p]);
                val->setDouble(static_cast<int64_t>(p), m.val[p]);
            }
        };
        bind_csr("a", *a);
        bind_csr("bt", *bt);
        b.makeArray("c", ElemType::kF64,
                    static_cast<size_t>(a->rows) * static_cast<size_t>(bt->rows));
        b.setScalarInt("n", a->rows);
        b.setScalarInt("m", bt->rows);
    };
    c.check = [golden](Binding& b, Variant, std::string* err) {
        return checkF64(b, "c", *golden, 1e-12, err);
    };
    return c;
}

} // namespace

uint64_t
subSeed(uint64_t seed, uint64_t salt)
{
    // One splitmix64 step over seed and salt.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::pair<std::string, std::string>>
mainSuiteTraining()
{
    return {{"bfs", "internet"},  {"bfs", "road"},  {"cc", "internet"},
            {"cc", "road"},       {"prd", "internet"}, {"prd", "road"},
            {"radii", "internet"}, {"radii", "road"}, {"spmm", "enron"},
            {"spmm", "wiki"}};
}

std::vector<KernelInput>
makeKernelInputs(uint64_t seed, bool tiny,
                 const std::vector<std::pair<std::string, std::string>>& wanted)
{
    // Sizes and degrees of the training rows in tableIVInputs() and
    // spmmInputs(); tiny divides the graph sizes by 20 and the matrix
    // rows by 5.
    const int div = tiny ? 20 : 1;
    std::map<std::string, std::shared_ptr<const CSRGraph>> graphs;
    std::map<std::string, std::shared_ptr<const CSRMatrix>> matrices;
    auto graph = [&](const std::string& name) {
        auto& g = graphs[name];
        if (g == nullptr) {
            if (name == "internet") {
                g = std::make_shared<const CSRGraph>(phloem::wl::makeRMat(
                    3200 / div, 5500 / div, subSeed(seed, 1)));
            } else {
                g = std::make_shared<const CSRGraph>(
                    phloem::wl::makeRoadNetwork(6600 / div, 0.70,
                                                subSeed(seed, 2)));
            }
        }
        return g;
    };
    auto matrix = [&](const std::string& name) {
        auto& m = matrices[name];
        if (m == nullptr) {
            if (name == "enron") {
                m = std::make_shared<const CSRMatrix>(
                    phloem::wl::makeRandomMatrix(tiny ? 30 : 150, 10.0,
                                                 subSeed(seed, 3)));
            } else {
                m = std::make_shared<const CSRMatrix>(
                    phloem::wl::makeRandomMatrix(tiny ? 24 : 120, 12.5,
                                                 subSeed(seed, 4)));
            }
        }
        return m;
    };

    std::map<std::string, phloem::wl::Workload> suite;
    for (auto& w : phloem::wl::mainSuite())
        suite.emplace(w.name, std::move(w));

    std::vector<KernelInput> out;
    for (const auto& [kernel, input] : wanted) {
        auto it = suite.find(kernel);
        if (it == suite.end())
            throw std::invalid_argument("unknown kernel " + kernel);
        KernelInput ki;
        ki.kernel = kernel;
        ki.input = input;
        ki.source = it->second.serialSrc;
        ki.maxThreads = it->second.maxThreads;
        bool is_graph = input == "internet" || input == "road";
        if (kernel == "spmm" ? is_graph : !is_graph)
            throw std::invalid_argument("no input " + input + " for " + kernel);
        if (kernel == "bfs")
            ki.c = bfsCase(graph(input));
        else if (kernel == "cc")
            ki.c = ccCase(graph(input));
        else if (kernel == "prd")
            ki.c = prdCase(graph(input));
        else if (kernel == "radii")
            ki.c = radiiCase(graph(input));
        else
            ki.c = spmmCase(matrix(input));
        ki.c.inputName = input;
        ki.c.training = true;
        out.push_back(std::move(ki));
    }
    return out;
}

} // namespace perfbench
