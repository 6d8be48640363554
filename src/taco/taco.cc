#include "taco/taco.h"

#include <cctype>
#include <sstream>
#include <vector>

#include "base/logging.h"

namespace phloem::taco {

namespace {

/** A parsed tensor access: name plus index variable list. */
struct Access
{
    std::string name;
    std::vector<std::string> indices;
    bool isScalar() const { return indices.empty(); }
    bool isMatrix() const { return indices.size() == 2; }
};

/** One multiplicative term: +/- sign and a product of accesses. */
struct Term
{
    int sign = 1;
    std::vector<Access> factors;
};

struct ParsedExpr
{
    Access lhs;
    std::vector<Term> terms;
};

class ExprParser
{
  public:
    explicit ExprParser(const std::string& text) : text_(text) {}

    ParsedExpr
    run()
    {
        ParsedExpr out;
        out.lhs = parseAccess();
        expect('=');
        int sign = 1;
        if (peek() == '-') {
            get();
            sign = -1;
        }
        out.terms.push_back(parseTerm(sign));
        while (peek() == '+' || peek() == '-') {
            char op = get();
            out.terms.push_back(parseTerm(op == '-' ? -1 : 1));
        }
        skipWs();
        if (pos_ != text_.size())
            phloem_fatal("trailing junk in tensor expression: '", text_,
                         "'");
        return out;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            pos_++;
        }
    }

    char
    peek()
    {
        skipWs();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    char
    get()
    {
        char c = peek();
        pos_++;
        return c;
    }

    void
    expect(char c)
    {
        if (get() != c)
            phloem_fatal("expected '", std::string(1, c),
                         "' in tensor expression: '", text_, "'");
    }

    Term
    parseTerm(int sign)
    {
        Term t;
        t.sign = sign;
        t.factors.push_back(parseAccess());
        while (peek() == '*') {
            get();
            t.factors.push_back(parseAccess());
        }
        return t;
    }

    Access
    parseAccess()
    {
        skipWs();
        Access a;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
            a.name.push_back(text_[pos_++]);
        }
        if (a.name.empty())
            phloem_fatal("expected tensor name in '", text_, "'");
        if (peek() == '(') {
            get();
            std::string idx;
            for (;;) {
                skipWs();
                if (pos_ >= text_.size())
                    phloem_fatal("unterminated index list in tensor "
                                 "expression: '",
                                 text_, "'");
                char c = text_[pos_++];
                if (c == ',' || c == ')') {
                    a.indices.push_back(idx);
                    idx.clear();
                    if (c == ')')
                        break;
                } else {
                    idx.push_back(c);
                }
            }
        }
        return a;
    }

    const std::string& text_;
    size_t pos_ = 0;
};

/** Sparse operands are upper-case-named matrices (CSR). */
bool
isSparse(const Access& a)
{
    return a.isMatrix() &&
           std::isupper(static_cast<unsigned char>(a.name[0]));
}

// --- Code emission (Taco-style: pos/crd/val level iteration). ---

std::string
spmvLike(const std::string& fn_name, const Access& sparse,
         const std::string& x_name, const std::string& b_name,
         bool subtract, bool par)
{
    // y(i) = [b(i) -] A(i,j) * x(j): row-major CSR traversal with a
    // gather from x (the irregular indirection Phloem decouples).
    std::ostringstream c;
    const std::string& A = sparse.name;
    if (!par)
        c << "#pragma phloem\n";
    c << "void " << fn_name << (par ? "_par" : "")
      << "(const int* restrict " << A
      << "_pos, const int* restrict " << A
      << "_crd,\n        const double* restrict " << A
      << "_val, const double* restrict " << x_name << ",\n";
    if (!b_name.empty())
        c << "        const double* restrict " << b_name << ",\n";
    if (par) {
        c << "        double* restrict y, int n, int tid, int nthreads)"
          << " {\n"
          << "    int lo = tid * n / nthreads;\n"
          << "    int hi = (tid + 1) * n / nthreads;\n"
          << "    for (int i = lo; i < hi; i++) {\n";
    } else {
        c << "        double* restrict y, int n) {\n"
          << "    for (int i = 0; i < n; i++) {\n";
    }
    c
      << "        double sum = 0.0;\n"
      << "        int p_end = " << A << "_pos[i + 1];\n"
      << "        for (int p = " << A << "_pos[i]; p < p_end; p++) {\n"
      << "            int j = " << A << "_crd[p];\n"
      << "            sum = sum + " << A << "_val[p] * " << x_name
      << "[j];\n"
      << "        }\n";
    if (b_name.empty()) {
        c << "        y[i] = sum;\n";
    } else if (subtract) {
        c << "        y[i] = " << b_name << "[i] - sum;\n";
    } else {
        c << "        y[i] = " << b_name << "[i] + sum;\n";
    }
    c << "    }\n"
      << "}\n";
    return c.str();
}

std::string
mtmulKernel(const std::string& fn_name, const Access& sparse,
            const std::string& x_name, const std::string& z_name,
            const std::string& alpha_name, const std::string& beta_name,
            bool par)
{
    // y(j) = alpha * A(i,j) * x(i) + beta * z(j): a scatter along the
    // compressed dimension (transpose product).
    std::ostringstream c;
    const std::string& A = sparse.name;
    if (!par)
        c << "#pragma phloem\n";
    c << "void " << fn_name << (par ? "_par" : "")
      << "(const int* restrict " << A
      << "_pos, const int* restrict " << A
      << "_crd,\n        const double* restrict " << A
      << "_val, const double* restrict " << x_name
      << ",\n        const double* restrict " << z_name
      << ", double* restrict y,\n        int n, int m, double "
      << alpha_name << ", double " << beta_name;
    if (par)
        c << ", int tid, int nthreads";
    c << ") {\n";
    if (par) {
        c << "    int jlo = tid * m / nthreads;\n"
          << "    int jhi = (tid + 1) * m / nthreads;\n"
          << "    for (int j = jlo; j < jhi; j++) {\n"
          << "        y[j] = " << beta_name << " * " << z_name
          << "[j];\n    }\n"
          << "    phloem_barrier();\n"
          << "    int lo = tid * n / nthreads;\n"
          << "    int hi = (tid + 1) * n / nthreads;\n"
          << "    for (int i = lo; i < hi; i++) {\n";
    } else {
        c << "    for (int j = 0; j < m; j++) {\n"
          << "        y[j] = " << beta_name << " * " << z_name
          << "[j];\n    }\n"
          << "    for (int i = 0; i < n; i++) {\n";
    }
    c << "        double xi = " << alpha_name << " * " << x_name
      << "[i];\n"
      << "        int p_end = " << A << "_pos[i + 1];\n"
      << "        for (int p = " << A << "_pos[i]; p < p_end; p++) {\n"
      << "            int j = " << A << "_crd[p];\n";
    if (par) {
        c << "            phloem_atomic_fadd(y, j, " << A
          << "_val[p] * xi);\n";
    } else {
        c << "            y[j] = y[j] + " << A << "_val[p] * xi;\n";
    }
    c << "        }\n"
      << "    }\n"
      << "}\n";
    return c.str();
}

std::string
sddmmKernel(const std::string& fn_name, const Access& out,
            const Access& sparse, const std::string& c_name,
            const std::string& d_name, bool par)
{
    // A(i,j) = B(i,j) * C(i,k) * D(k,j): sample the dense product at B's
    // nonzeros; the innermost loop is dense and regular (the case the
    // paper notes conventional cores already handle well).
    std::ostringstream c;
    const std::string& B = sparse.name;
    if (!par)
        c << "#pragma phloem\n";
    c << "void " << fn_name << (par ? "_par" : "")
      << "(const int* restrict " << B
      << "_pos, const int* restrict " << B
      << "_crd,\n        const double* restrict " << B
      << "_val, const double* restrict " << c_name
      << ",\n        const double* restrict " << d_name
      << ", double* restrict " << out.name
      << "_val,\n        int n, int m, int kdim";
    if (par)
        c << ", int tid, int nthreads";
    c << ") {\n";
    if (par) {
        c << "    int lo = tid * n / nthreads;\n"
          << "    int hi = (tid + 1) * n / nthreads;\n"
          << "    for (int i = lo; i < hi; i++) {\n";
    } else {
        c << "    for (int i = 0; i < n; i++) {\n";
    }
    c
      << "        int p_end = " << B << "_pos[i + 1];\n"
      << "        for (int p = " << B << "_pos[i]; p < p_end; p++) {\n"
      << "            int j = " << B << "_crd[p];\n"
      << "            double dot = 0.0;\n"
      << "            for (int kk = 0; kk < kdim; kk++) {\n"
      << "                dot = dot + " << c_name << "[i * kdim + kk] * "
      << d_name << "[kk * m + j];\n"
      << "            }\n"
      << "            " << out.name << "_val[p] = " << B
      << "_val[p] * dot;\n"
      << "        }\n"
      << "    }\n"
      << "}\n";
    return c.str();
}

} // namespace

TacoKernel
compileExpression(const std::string& name, const std::string& expression)
{
    ParsedExpr e = ExprParser(expression).run();

    TacoKernel out;
    out.name = name;
    out.expression = expression;

    // SDDMM: sparse output sampled from a dense product.
    if (isSparse(e.lhs)) {
        phloem_assert(e.terms.size() == 1 &&
                          e.terms[0].factors.size() == 3,
                      "unsupported sparse-output expression: ",
                      expression);
        const Access& b = e.terms[0].factors[0];
        const Access& c = e.terms[0].factors[1];
        const Access& d = e.terms[0].factors[2];
        phloem_assert(isSparse(b) && c.isMatrix() && d.isMatrix(),
                      "unsupported SDDMM form: ", expression);
        out.source = sddmmKernel(name, e.lhs, b, c.name, d.name, false);
        out.parallelSource =
            sddmmKernel(name, e.lhs, b, c.name, d.name, true);
        return out;
    }

    // Dense-vector output forms.
    phloem_assert(e.lhs.indices.size() == 1,
                  "unsupported output: ", expression);
    const std::string& out_idx = e.lhs.indices[0];

    int sparse_term = -1;
    for (size_t t = 0; t < e.terms.size(); ++t) {
        for (const auto& f : e.terms[t].factors)
            if (isSparse(f))
                sparse_term = static_cast<int>(t);
    }
    phloem_assert(sparse_term >= 0, "no sparse operand in: ", expression);
    const Term& st = e.terms[static_cast<size_t>(sparse_term)];

    const Access* sparse = nullptr;
    std::string vec, scale;
    for (const auto& f : st.factors) {
        if (isSparse(f))
            sparse = &f;
        else if (f.indices.size() == 1)
            vec = f.name;
        else if (f.isScalar())
            scale = f.name;
    }
    phloem_assert(sparse != nullptr && !vec.empty(),
                  "unsupported term in: ", expression);

    // MTMul: output indexed by the sparse matrix's column variable.
    if (sparse->indices[1] == out_idx) {
        phloem_assert(e.terms.size() == 2,
                      "MTMul needs + beta*z: ", expression);
        const Term& zt = e.terms[static_cast<size_t>(1 - sparse_term)];
        std::string z, beta;
        for (const auto& f : zt.factors) {
            if (f.isScalar())
                beta = f.name;
            else
                z = f.name;
        }
        std::string an = scale.empty() ? "alpha" : scale;
        std::string bn = beta.empty() ? "beta" : beta;
        out.source = mtmulKernel(name, *sparse, vec, z, an, bn, false);
        out.parallelSource =
            mtmulKernel(name, *sparse, vec, z, an, bn, true);
        return out;
    }

    // SpMV or Residual.
    if (e.terms.size() == 1) {
        out.source = spmvLike(name, *sparse, vec, "", false, false);
        out.parallelSource = spmvLike(name, *sparse, vec, "", false, true);
        return out;
    }
    phloem_assert(e.terms.size() == 2,
                  "unsupported expression: ", expression);
    const Term& bt = e.terms[static_cast<size_t>(1 - sparse_term)];
    phloem_assert(bt.factors.size() == 1 &&
                      bt.factors[0].indices.size() == 1,
                  "unsupported additive term in: ", expression);
    bool subtract = st.sign < 0;
    out.source = spmvLike(name, *sparse, vec, bt.factors[0].name,
                          subtract, false);
    out.parallelSource = spmvLike(name, *sparse, vec,
                                  bt.factors[0].name, subtract, true);
    return out;
}

std::vector<TacoKernel>
paperKernels()
{
    std::vector<TacoKernel> v;
    v.push_back(compileExpression("taco_spmv", "y(i) = A(i,j) * x(j)"));
    v.push_back(compileExpression("taco_residual",
                                  "y(i) = b(i) - A(i,j) * x(j)"));
    v.push_back(compileExpression(
        "taco_mtmul", "y(j) = alpha * A(i,j) * x(i) + beta * z(j)"));
    v.push_back(compileExpression("taco_sddmm",
                                  "A(i,j) = B(i,j) * C(i,k) * D(k,j)"));
    return v;
}

} // namespace phloem::taco
