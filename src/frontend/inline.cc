/**
 * @file
 * Function inlining for the mini-C frontend.
 *
 * The paper notes that Phloem "currently works on a single procedure";
 * calls to other functions are supported but not decoupled within, and
 * "inlining could remove this limitation; we leave this to future work".
 * This implements that future work at the AST level: before lowering, a
 * call to another function defined in the same translation unit is
 * replaced by its body with parameters bound to the argument expressions,
 * so the decoupler sees one flat procedure.
 *
 * Supported callees: void functions whose parameters are scalars or
 * pointers, bodies without return statements, called as expression
 * statements with variable/array-name arguments (the form helper
 * routines in kernel code take). Recursion is rejected.
 */

#include <algorithm>
#include <map>
#include <set>

#include "base/logging.h"
#include "frontend/inline.h"

namespace phloem::fe {

namespace {

ExprPtr
cloneExpr(const Expr& e)
{
    auto out = std::make_unique<Expr>();
    out->kind = e.kind;
    out->line = e.line;
    out->intValue = e.intValue;
    out->floatValue = e.floatValue;
    out->name = e.name;
    out->op = e.op;
    out->height = e.height;
    for (const auto& k : e.kids)
        out->kids.push_back(cloneExpr(*k));
    return out;
}

/**
 * Height of a statement's tree, its expressions included. Recursing is
 * safe: every tree here was built within kMaxNesting (the parser's
 * bound, or a splice this pass already checked).
 */
int
stmtHeight(const AstStmt& s)
{
    int h = 0;
    for (const auto& [name, init] : s.decls)
        if (init)
            h = std::max(h, init->height);
    if (s.expr)
        h = std::max(h, s.expr->height);
    if (s.init)
        h = std::max(h, stmtHeight(*s.init));
    if (s.inc)
        h = std::max(h, s.inc->height);
    for (const auto& k : s.body)
        h = std::max(h, stmtHeight(*k));
    for (const auto& k : s.elseBody)
        h = std::max(h, stmtHeight(*k));
    return h + 1;
}

/** Statements in s's tree, s and its nested statements included. */
int
stmtCount(const AstStmt& s)
{
    int n = 1;
    if (s.init)
        n += stmtCount(*s.init);
    for (const auto& k : s.body)
        n += stmtCount(*k);
    for (const auto& k : s.elseBody)
        n += stmtCount(*k);
    return n;
}

AstStmtPtr
cloneStmt(const AstStmt& s)
{
    auto out = std::make_unique<AstStmt>();
    out->kind = s.kind;
    out->line = s.line;
    out->declType = s.declType;
    for (const auto& [name, init] : s.decls) {
        out->decls.emplace_back(name,
                                init ? cloneExpr(*init) : nullptr);
    }
    if (s.expr)
        out->expr = cloneExpr(*s.expr);
    if (s.init)
        out->init = cloneStmt(*s.init);
    if (s.inc)
        out->inc = cloneExpr(*s.inc);
    for (const auto& k : s.body)
        out->body.push_back(cloneStmt(*k));
    for (const auto& k : s.elseBody)
        out->elseBody.push_back(cloneStmt(*k));
    out->pragmaText = s.pragmaText;
    return out;
}

/** Rename every identifier occurrence per the substitution map. */
void
renameExpr(Expr& e, const std::map<std::string, std::string>& subst)
{
    if (e.kind == Expr::Kind::kVar || e.kind == Expr::Kind::kCall) {
        auto it = subst.find(e.name);
        if (it != subst.end())
            e.name = it->second;
    }
    for (auto& k : e.kids)
        renameExpr(*k, subst);
}

void
renameStmt(AstStmt& s, std::map<std::string, std::string> subst,
           int uniq)
{
    // Local declarations shadow: rename them to fresh names.
    if (s.kind == AstStmt::Kind::kDecl) {
        for (auto& [name, init] : s.decls) {
            if (init)
                renameExpr(*init, subst);
            std::string fresh =
                name + "__inl" + std::to_string(uniq);
            subst[name] = fresh;
            name = fresh;
        }
        // Note: later statements in the same region must see the updated
        // substitution; handled by the caller's sequential walk.
    }
    if (s.expr)
        renameExpr(*s.expr, subst);
    if (s.init)
        renameStmt(*s.init, subst, uniq);
    if (s.inc)
        renameExpr(*s.inc, subst);
    for (auto& k : s.body)
        renameStmt(*k, subst, uniq);
    for (auto& k : s.elseBody)
        renameStmt(*k, subst, uniq);
}

/** Sequential region rename that threads decl substitutions forward. */
void
renameRegion(std::vector<AstStmtPtr>& body,
             std::map<std::string, std::string>& subst, int uniq)
{
    for (auto& s : body) {
        if (s->kind == AstStmt::Kind::kDecl) {
            for (auto& [name, init] : s->decls) {
                if (init)
                    renameExpr(*init, subst);
                std::string fresh =
                    name + "__inl" + std::to_string(uniq);
                subst[name] = fresh;
                name = fresh;
            }
            continue;
        }
        // Non-decl statements: rename with the current substitution;
        // nested regions get their own copy (their decls shadow only
        // within).
        renameStmt(*s, subst, uniq);
    }
}

bool
isBuiltin(const std::string& name)
{
    return name == "phloem_swap" || name == "phloem_work" ||
           name == "phloem_barrier" || name == "min" || name == "max" ||
           name == "fabs" || name == "abs" ||
           name.rfind("phloem_atomic_", 0) == 0 ||
           name.rfind("__cast_", 0) == 0;
}

class Inliner
{
  public:
    explicit Inliner(TranslationUnit& tu) : tu_(tu)
    {
        for (auto& fn : tu.functions)
            byName_[fn->name] = fn.get();
    }

    void
    run()
    {
        for (auto& fn : tu_.functions) {
            countStatements(fn->body, "function", fn->name, fn->line);
            std::set<std::string> stack{fn->name};
            inlineRegion(fn->body, stack, /*depth=*/1);
        }
    }

  private:
    /**
     * Add body's statements to the unit's running total, before anything
     * is copied, so a call chain that doubles at every level stops
     * before its expansion is allocated.
     */
    void
    countStatements(const std::vector<AstStmtPtr>& body, const char* what,
                    const std::string& name, int line)
    {
        for (const auto& st : body)
            statements_ += stmtCount(*st);
        if (statements_ > kMaxStatements)
            phloem_fatal(what, " ", name, " at line ", line,
                         " grows the translation unit past ",
                         kMaxStatements, " statements");
    }

    /** `depth`: how deep the statements of `body` sit (top level = 1). */
    void
    inlineRegion(std::vector<AstStmtPtr>& body,
                 std::set<std::string>& stack, int depth)
    {
        for (size_t i = 0; i < body.size(); ++i) {
            AstStmt& s = *body[i];
            // Recurse into nested regions first.
            if (s.init)
                inlineRegionOne(*s.init, stack, depth + 1);
            inlineRegion(s.body, stack, depth + 1);
            inlineRegion(s.elseBody, stack, depth + 1);

            if (s.kind != AstStmt::Kind::kExpr || !s.expr ||
                s.expr->kind != Expr::Kind::kCall) {
                continue;
            }
            const std::string& callee_name = s.expr->name;
            if (isBuiltin(callee_name))
                continue;
            auto it = byName_.find(callee_name);
            if (it == byName_.end())
                continue;  // unknown: the lowerer reports it
            phloem_assert(stack.count(callee_name) == 0,
                          "recursive call to ", callee_name,
                          " cannot be inlined");
            const FunctionDecl& callee = *it->second;
            phloem_assert(
                callee.params.size() == s.expr->kids.size(),
                "argument count mismatch calling ", callee_name);
            countStatements(callee.body, "inlining", callee_name, s.line);

            // Bind parameters. Pointer parameters must be plain array
            // names (by-reference: rename). Scalar parameters copy in
            // through a fresh local, preserving C's by-value semantics
            // and allowing arbitrary argument expressions.
            std::map<std::string, std::string> subst;
            std::vector<AstStmtPtr> cloned;
            int uniq = uniq_++;
            for (size_t p = 0; p < callee.params.size(); ++p) {
                const ParamDecl& param = callee.params[p];
                const Expr& arg = *s.expr->kids[p];
                if (param.isPointer) {
                    phloem_assert(arg.kind == Expr::Kind::kVar,
                                  "array argument to inlined call must "
                                  "be a plain array name (calling ",
                                  callee_name, ")");
                    subst[param.name] = arg.name;
                    continue;
                }
                std::string fresh = param.name + "__arg" +
                                    std::to_string(uniq);
                auto decl = std::make_unique<AstStmt>();
                decl->kind = AstStmt::Kind::kDecl;
                decl->line = s.line;
                decl->declType =
                    (param.baseType == Tok::kDouble ||
                     param.baseType == Tok::kFloat)
                        ? Ty::kDouble
                        : Ty::kInt;
                decl->decls.emplace_back(fresh, cloneExpr(arg));
                cloned.push_back(std::move(decl));
                subst[param.name] = fresh;
            }

            // Clone + rename the body, then splice it in.
            size_t body_start = cloned.size();
            for (const auto& st : callee.body)
                cloned.push_back(cloneStmt(*st));
            std::vector<AstStmtPtr> body_part;
            for (size_t k = body_start; k < cloned.size(); ++k)
                body_part.push_back(std::move(cloned[k]));
            cloned.resize(body_start);
            renameRegion(body_part, subst, uniq);
            for (auto& st : body_part)
                cloned.push_back(std::move(st));

            // The spliced statements sit at the call's depth: a callee
            // that fits on its own can still nest too deep here.
            for (const auto& st : cloned)
                if (depth - 1 + stmtHeight(*st) > kMaxNesting)
                    phloem_fatal("inlining ", callee_name, " at line ",
                                 s.line, " nests deeper than ",
                                 kMaxNesting, " levels");

            // Recursively inline within the spliced body.
            stack.insert(callee_name);
            inlineRegion(cloned, stack, depth);
            stack.erase(callee_name);

            body.erase(body.begin() + static_cast<long>(i));
            body.insert(body.begin() + static_cast<long>(i),
                        std::make_move_iterator(cloned.begin()),
                        std::make_move_iterator(cloned.end()));
            i += cloned.size();
            i--;  // account for the loop increment
        }
    }

    void
    inlineRegionOne(AstStmt& s, std::set<std::string>& stack, int depth)
    {
        inlineRegion(s.body, stack, depth);
        inlineRegion(s.elseBody, stack, depth);
    }

    TranslationUnit& tu_;
    std::map<std::string, FunctionDecl*> byName_;
    int uniq_ = 0;
    /** Statements reached so far: function bodies plus spliced callees. */
    int statements_ = 0;
};

} // namespace

void
inlineCalls(TranslationUnit& tu)
{
    Inliner(tu).run();
}

} // namespace phloem::fe
