/**
 * @file
 * AST-to-IR lowering with simple int/double type checking.
 */

#include <map>
#include <sstream>

#include "base/logging.h"
#include "frontend/frontend.h"
#include "frontend/inline.h"
#include "frontend/parser.h"
#include "ir/builder.h"
#include "ir/simplify.h"
#include "ir/walk.h"

namespace phloem::fe {

namespace {

/** One symbol: either a scalar register or an array slot. */
struct Sym
{
    bool isArray = false;
    ir::ArrayId arr = ir::kNoArray;
    ir::RegId reg = ir::kNoReg;
    Ty ty = Ty::kInt;
};

/** A typed rvalue. */
struct RV
{
    ir::RegId reg = ir::kNoReg;
    Ty ty = Ty::kInt;
};

/** Alias class shared by all non-restrict pointer parameters. */
constexpr int kMayAliasClass = 10000;

class Lowerer
{
  public:
    explicit Lowerer(const FunctionDecl& decl)
        : decl_(decl), b_(decl.name)
    {
    }

    CompiledKernel
    run()
    {
        parsePragmas();
        pushScope();
        for (const auto& p : decl_.params)
            lowerParam(p);
        for (const auto& s : decl_.body)
            lowerStmt(*s);
        popScope();

        CompiledKernel out;
        out.fn = b_.finish();
        out.ann = ann_;
        return out;
    }

  private:
    [[noreturn]] void
    err(int line, const std::string& msg)
    {
        phloem_fatal(decl_.name, ":", line, ": ", msg);
    }

    void
    parsePragmas()
    {
        for (const auto& text : decl_.pragmas) {
            std::istringstream iss(text);
            std::string word;
            iss >> word;
            if (word == "phloem") {
                ann_.phloem = true;
            } else if (word.rfind("replicate", 0) == 0) {
                // Accept "replicate N" and "replicate(N)". Stop adding
                // digits once past the cap: no count can overflow.
                std::string rest = text.substr(9);
                int n = 0;
                for (char c : rest)
                    if (c >= '0' && c <= '9' && n <= kMaxReplicas)
                        n = n * 10 + (c - '0');
                if (n > kMaxReplicas)
                    err(decl_.line, "#pragma replicate asks for more than " +
                                        std::to_string(kMaxReplicas) +
                                        " replicas");
                if (n >= 1)
                    ann_.replicas = n;
            } else {
                phloem_warn("unknown function pragma '", text, "' on ",
                            decl_.name);
            }
        }
    }

    void
    lowerParam(const ParamDecl& p)
    {
        Sym sym;
        if (p.isPointer) {
            ir::ElemType elem;
            switch (p.baseType) {
              case Tok::kInt: elem = ir::ElemType::kI32; break;
              case Tok::kLong: elem = ir::ElemType::kI64; break;
              default: elem = ir::ElemType::kF64; break;
            }
            int alias_class = p.isRestrict ? -1 : kMayAliasClass;
            sym.isArray = true;
            sym.arr = b_.arrayParam(p.name, elem, !p.isConst, alias_class);
            sym.ty = elem == ir::ElemType::kF64 ? Ty::kDouble : Ty::kInt;
        } else {
            bool is_float =
                p.baseType == Tok::kDouble || p.baseType == Tok::kFloat;
            sym.reg = b_.scalarParam(p.name, is_float);
            sym.ty = is_float ? Ty::kDouble : Ty::kInt;
        }
        scopes_.back()[p.name] = sym;
    }

    // --- Scopes. ---

    void pushScope() { scopes_.emplace_back(); }
    void popScope() { scopes_.pop_back(); }

    Sym*
    find(const std::string& name)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end())
                return &f->second;
        }
        return nullptr;
    }

    // --- Expressions. ---

    RV
    coerce(RV v, Ty target, int line)
    {
        if (v.ty == target)
            return v;
        if (target == Ty::kDouble)
            return RV{b_.i2f(v.reg), Ty::kDouble};
        (void)line;
        return RV{b_.f2i(v.reg), Ty::kInt};
    }

    /** Evaluate to a register holding an int truth value. */
    ir::RegId
    evalCond(const Expr& e)
    {
        RV v = eval(e);
        if (v.ty == Ty::kDouble) {
            ir::RegId zero = b_.constF(0.0);
            return b_.emitBinary(ir::Opcode::kFCmpNe, v.reg, zero);
        }
        return v.reg;
    }

    RV
    eval(const Expr& e)
    {
        switch (e.kind) {
          case Expr::Kind::kIntLit:
            return RV{b_.constI(e.intValue), Ty::kInt};
          case Expr::Kind::kFloatLit:
            return RV{b_.constF(e.floatValue), Ty::kDouble};
          case Expr::Kind::kVar:
            return evalVar(e);
          case Expr::Kind::kIndex:
            return evalIndexLoad(e);
          case Expr::Kind::kUnary:
            return evalUnary(e);
          case Expr::Kind::kBinary:
            return evalBinary(e);
          case Expr::Kind::kAssign:
            return evalAssign(e);
          case Expr::Kind::kCond:
            return evalCondExpr(e);
          case Expr::Kind::kCall:
            return evalCall(e);
          case Expr::Kind::kIncDec:
            return evalIncDec(e);
        }
        err(e.line, "unsupported expression");
    }

    RV
    evalVar(const Expr& e)
    {
        if (e.name == "INT_MAX")
            return RV{b_.constI(2147483647), Ty::kInt};
        if (e.name == "INT_MIN")
            return RV{b_.constI(-2147483647 - 1), Ty::kInt};
        if (e.name == "LONG_MAX")
            return RV{b_.constI(0x7fffffffffffffffll), Ty::kInt};
        Sym* sym = find(e.name);
        if (sym == nullptr)
            err(e.line, "use of undeclared identifier '" + e.name + "'");
        if (sym->isArray)
            err(e.line, "array '" + e.name + "' used as a scalar");
        return RV{sym->reg, sym->ty};
    }

    /** Resolve an index expression's array symbol and index register. */
    std::pair<Sym*, ir::RegId>
    evalIndexRef(const Expr& e)
    {
        const Expr& base = *e.kids[0];
        if (base.kind != Expr::Kind::kVar)
            err(e.line, "only direct array indexing is supported");
        Sym* sym = find(base.name);
        if (sym == nullptr || !sym->isArray)
            err(base.line, "'" + base.name + "' is not an array");
        RV idx = coerce(eval(*e.kids[1]), Ty::kInt, e.line);
        return {sym, idx.reg};
    }

    RV
    evalIndexLoad(const Expr& e)
    {
        auto [sym, idx] = evalIndexRef(e);
        return RV{b_.load(sym->arr, idx), sym->ty};
    }

    RV
    evalUnary(const Expr& e)
    {
        RV v = eval(*e.kids[0]);
        switch (e.op) {
          case Tok::kMinus:
            if (v.ty == Ty::kDouble)
                return RV{b_.emitUnary(ir::Opcode::kFNeg, v.reg),
                          Ty::kDouble};
            return RV{b_.sub(b_.constI(0), v.reg), Ty::kInt};
          case Tok::kBang:
            return RV{b_.not_(evalCondReg(v, e.line)), Ty::kInt};
          case Tok::kTilde:
            return RV{b_.xor_(coerce(v, Ty::kInt, e.line).reg,
                              b_.constI(-1)),
                      Ty::kInt};
          default:
            err(e.line, "unsupported unary operator");
        }
    }

    ir::RegId
    evalCondReg(RV v, int line)
    {
        if (v.ty == Ty::kDouble) {
            ir::RegId zero = b_.constF(0.0);
            return b_.emitBinary(ir::Opcode::kFCmpNe, v.reg, zero);
        }
        (void)line;
        return v.reg;
    }

    RV
    evalBinary(const Expr& e)
    {
        // Short-circuit logical operators lower to control flow so the
        // right operand's memory accesses stay guarded.
        if (e.op == Tok::kAmpAmp || e.op == Tok::kPipePipe) {
            ir::RegId res = b_.newReg("sc");
            ir::RegId lhs = evalCond(*e.kids[0]);
            if (e.op == Tok::kAmpAmp) {
                b_.if_(
                    lhs,
                    [&] { b_.movTo(res, evalCond(*e.kids[1])); },
                    [&] { b_.constTo(res, 0); });
            } else {
                b_.if_(
                    lhs, [&] { b_.constTo(res, 1); },
                    [&] { b_.movTo(res, evalCond(*e.kids[1])); });
            }
            return RV{res, Ty::kInt};
        }

        RV l = eval(*e.kids[0]);
        RV r = eval(*e.kids[1]);
        bool fp = l.ty == Ty::kDouble || r.ty == Ty::kDouble;
        if (fp) {
            l = coerce(l, Ty::kDouble, e.line);
            r = coerce(r, Ty::kDouble, e.line);
        }

        auto bin = [&](ir::Opcode i_op, ir::Opcode f_op, Ty out_ty) {
            return RV{b_.emitBinary(fp ? f_op : i_op, l.reg, r.reg),
                      fp ? (out_ty == Ty::kInt ? Ty::kInt : Ty::kDouble)
                         : out_ty};
        };

        switch (e.op) {
          case Tok::kPlus:
            return bin(ir::Opcode::kAdd, ir::Opcode::kFAdd,
                       fp ? Ty::kDouble : Ty::kInt);
          case Tok::kMinus:
            return bin(ir::Opcode::kSub, ir::Opcode::kFSub,
                       fp ? Ty::kDouble : Ty::kInt);
          case Tok::kStar:
            return bin(ir::Opcode::kMul, ir::Opcode::kFMul,
                       fp ? Ty::kDouble : Ty::kInt);
          case Tok::kSlash:
            return bin(ir::Opcode::kDiv, ir::Opcode::kFDiv,
                       fp ? Ty::kDouble : Ty::kInt);
          case Tok::kPercent:
            if (fp)
                err(e.line, "%% on floating-point values");
            return RV{b_.rem(l.reg, r.reg), Ty::kInt};
          case Tok::kAmp: return RV{b_.and_(l.reg, r.reg), Ty::kInt};
          case Tok::kPipe: return RV{b_.or_(l.reg, r.reg), Ty::kInt};
          case Tok::kCaret: return RV{b_.xor_(l.reg, r.reg), Ty::kInt};
          case Tok::kShl: return RV{b_.shl(l.reg, r.reg), Ty::kInt};
          case Tok::kShrTok: return RV{b_.shr(l.reg, r.reg), Ty::kInt};
          case Tok::kEq:
            return RV{b_.emitBinary(fp ? ir::Opcode::kFCmpEq
                                       : ir::Opcode::kCmpEq,
                                    l.reg, r.reg),
                      Ty::kInt};
          case Tok::kNe:
            return RV{b_.emitBinary(fp ? ir::Opcode::kFCmpNe
                                       : ir::Opcode::kCmpNe,
                                    l.reg, r.reg),
                      Ty::kInt};
          case Tok::kLt:
            return RV{b_.emitBinary(fp ? ir::Opcode::kFCmpLt
                                       : ir::Opcode::kCmpLt,
                                    l.reg, r.reg),
                      Ty::kInt};
          case Tok::kLe:
            return RV{b_.emitBinary(fp ? ir::Opcode::kFCmpLe
                                       : ir::Opcode::kCmpLe,
                                    l.reg, r.reg),
                      Ty::kInt};
          case Tok::kGt:
            return RV{b_.emitBinary(fp ? ir::Opcode::kFCmpGt
                                       : ir::Opcode::kCmpGt,
                                    l.reg, r.reg),
                      Ty::kInt};
          case Tok::kGe:
            return RV{b_.emitBinary(fp ? ir::Opcode::kFCmpGe
                                       : ir::Opcode::kCmpGe,
                                    l.reg, r.reg),
                      Ty::kInt};
          default:
            err(e.line, "unsupported binary operator");
        }
    }

    RV
    evalAssign(const Expr& e)
    {
        const Expr& lhs = *e.kids[0];
        const Expr& rhs = *e.kids[1];

        auto combine = [&](RV old, RV nv, int line) -> RV {
            bool fp = old.ty == Ty::kDouble;
            RV r = coerce(nv, old.ty, line);
            switch (e.op) {
              case Tok::kAssign: return r;
              case Tok::kPlusAssign:
                return RV{fp ? b_.fadd(old.reg, r.reg)
                             : b_.add(old.reg, r.reg),
                          old.ty};
              case Tok::kMinusAssign:
                return RV{fp ? b_.fsub(old.reg, r.reg)
                             : b_.sub(old.reg, r.reg),
                          old.ty};
              case Tok::kStarAssign:
                return RV{fp ? b_.fmul(old.reg, r.reg)
                             : b_.mul(old.reg, r.reg),
                          old.ty};
              case Tok::kOrAssign:
                if (fp)
                    err(line, "|= on floating-point value");
                return RV{b_.or_(old.reg, r.reg), Ty::kInt};
              case Tok::kAndAssign:
                if (fp)
                    err(line, "&= on floating-point value");
                return RV{b_.and_(old.reg, r.reg), Ty::kInt};
              default:
                err(line, "unsupported assignment operator");
            }
        };

        if (lhs.kind == Expr::Kind::kVar) {
            Sym* sym = find(lhs.name);
            if (sym == nullptr)
                err(lhs.line,
                    "assignment to undeclared '" + lhs.name + "'");
            if (sym->isArray)
                err(lhs.line, "cannot assign to array '" + lhs.name + "'");
            RV rv = eval(rhs);
            RV nv = e.op == Tok::kAssign
                        ? coerce(rv, sym->ty, e.line)
                        : combine(RV{sym->reg, sym->ty}, rv, e.line);
            b_.movTo(sym->reg, nv.reg);
            return RV{sym->reg, sym->ty};
        }
        if (lhs.kind == Expr::Kind::kIndex) {
            auto [sym, idx] = evalIndexRef(lhs);
            RV rv = eval(rhs);
            RV nv;
            if (e.op == Tok::kAssign) {
                nv = coerce(rv, sym->ty, e.line);
            } else {
                RV old{b_.load(sym->arr, idx), sym->ty};
                nv = combine(old, rv, e.line);
            }
            b_.store(sym->arr, idx, nv.reg);
            return nv;
        }
        err(lhs.line, "invalid assignment target");
    }

    RV
    evalCondExpr(const Expr& e)
    {
        // Lower ?: to control flow so both arms stay guarded.
        ir::RegId cond = evalCond(*e.kids[0]);
        ir::RegId res = b_.newReg("sel");
        Ty out = Ty::kInt;
        b_.if_(
            cond,
            [&] {
                RV t = eval(*e.kids[1]);
                out = t.ty;
                b_.movTo(res, t.reg);
            },
            [&] {
                RV f = eval(*e.kids[2]);
                RV cf = coerce(f, out, e.line);
                b_.movTo(res, cf.reg);
            });
        return RV{res, out};
    }

    RV
    evalIncDec(const Expr& e)
    {
        // Supported as a statement-level side effect only; the value of
        // v++ vs ++v is not distinguished (kernels do not rely on it).
        const Expr& target = *e.kids[0];
        ir::RegId one = b_.constI(1);
        if (target.kind == Expr::Kind::kVar) {
            Sym* sym = find(target.name);
            if (sym == nullptr || sym->isArray)
                err(target.line, "invalid ++/-- target");
            if (sym->ty == Ty::kDouble)
                err(target.line, "++/-- on double");
            ir::RegId nv = e.op == Tok::kPlusPlus
                               ? b_.add(sym->reg, one)
                               : b_.sub(sym->reg, one);
            b_.movTo(sym->reg, nv);
            return RV{sym->reg, Ty::kInt};
        }
        if (target.kind == Expr::Kind::kIndex) {
            auto [sym, idx] = evalIndexRef(target);
            ir::RegId old = b_.load(sym->arr, idx);
            ir::RegId nv = e.op == Tok::kPlusPlus ? b_.add(old, one)
                                                  : b_.sub(old, one);
            b_.store(sym->arr, idx, nv);
            return RV{nv, Ty::kInt};
        }
        err(target.line, "invalid ++/-- target");
    }

    RV
    evalCall(const Expr& e)
    {
        auto nargs = e.kids.size();
        if (e.name == "__cast_int") {
            return coerce(eval(*e.kids[0]), Ty::kInt, e.line);
        }
        if (e.name == "__cast_double") {
            return coerce(eval(*e.kids[0]), Ty::kDouble, e.line);
        }
        if (e.name == "phloem_swap" && nargs == 2) {
            const Expr& a = *e.kids[0];
            const Expr& b = *e.kids[1];
            if (a.kind != Expr::Kind::kVar || b.kind != Expr::Kind::kVar)
                err(e.line, "phloem_swap takes two array names");
            Sym* sa = find(a.name);
            Sym* sb = find(b.name);
            if (sa == nullptr || sb == nullptr || !sa->isArray ||
                !sb->isArray) {
                err(e.line, "phloem_swap takes two array names");
            }
            b_.swapArrays(sa->arr, sb->arr);
            return RV{b_.constI(0), Ty::kInt};
        }
        if (e.name == "phloem_work" && nargs == 2) {
            RV x = coerce(eval(*e.kids[0]), Ty::kInt, e.line);
            const Expr& cost = *e.kids[1];
            if (cost.kind != Expr::Kind::kIntLit)
                err(e.line, "phloem_work cost must be a literal");
            return RV{b_.work(x.reg, cost.intValue), Ty::kInt};
        }
        if (e.name == "phloem_barrier" && nargs == 0) {
            b_.barrier();
            return RV{b_.constI(0), Ty::kInt};
        }
        if ((e.name == "phloem_atomic_min" ||
             e.name == "phloem_atomic_add" ||
             e.name == "phloem_atomic_or" ||
             e.name == "phloem_atomic_fadd") &&
            nargs == 3) {
            const Expr& base = *e.kids[0];
            if (base.kind != Expr::Kind::kVar)
                err(e.line, e.name + " takes an array name first");
            Sym* sym = find(base.name);
            if (sym == nullptr || !sym->isArray)
                err(e.line, "'" + base.name + "' is not an array");
            RV idx = coerce(eval(*e.kids[1]), Ty::kInt, e.line);
            RV val = coerce(eval(*e.kids[2]), sym->ty, e.line);
            if (e.name == "phloem_atomic_min")
                return RV{b_.atomicMin(sym->arr, idx.reg, val.reg),
                          sym->ty};
            if (e.name == "phloem_atomic_add")
                return RV{b_.atomicAdd(sym->arr, idx.reg, val.reg),
                          sym->ty};
            if (e.name == "phloem_atomic_or")
                return RV{b_.atomicOr(sym->arr, idx.reg, val.reg),
                          sym->ty};
            return RV{b_.atomicFAdd(sym->arr, idx.reg, val.reg), sym->ty};
        }
        if ((e.name == "min" || e.name == "max") && nargs == 2) {
            RV a = eval(*e.kids[0]);
            RV b2 = eval(*e.kids[1]);
            bool fp = a.ty == Ty::kDouble || b2.ty == Ty::kDouble;
            if (fp) {
                a = coerce(a, Ty::kDouble, e.line);
                b2 = coerce(b2, Ty::kDouble, e.line);
                return RV{b_.emitBinary(e.name == "min"
                                            ? ir::Opcode::kFMin
                                            : ir::Opcode::kFMax,
                                        a.reg, b2.reg),
                          Ty::kDouble};
            }
            return RV{b_.emitBinary(e.name == "min" ? ir::Opcode::kMin
                                                    : ir::Opcode::kMax,
                                    a.reg, b2.reg),
                      Ty::kInt};
        }
        if ((e.name == "fabs" || e.name == "abs") && nargs == 1) {
            RV a = eval(*e.kids[0]);
            if (a.ty == Ty::kDouble || e.name == "fabs") {
                a = coerce(a, Ty::kDouble, e.line);
                return RV{b_.fabs_(a.reg), Ty::kDouble};
            }
            ir::RegId zero = b_.constI(0);
            ir::RegId neg = b_.sub(zero, a.reg);
            return RV{b_.max(a.reg, neg), Ty::kInt};
        }
        err(e.line, "unsupported call to '" + e.name + "'");
    }

    // --- Statements. ---

    void
    lowerStmt(const AstStmt& s)
    {
        switch (s.kind) {
          case AstStmt::Kind::kEmpty:
            return;
          case AstStmt::Kind::kPragma:
            lowerPragma(s);
            return;
          case AstStmt::Kind::kExpr:
            eval(*s.expr);
            return;
          case AstStmt::Kind::kDecl:
            lowerDecl(s);
            return;
          case AstStmt::Kind::kBlock: {
            pushScope();
            for (const auto& k : s.body)
                lowerStmt(*k);
            popScope();
            return;
          }
          case AstStmt::Kind::kIf: {
            ir::RegId cond = evalCond(*s.expr);
            if (s.elseBody.empty()) {
                b_.if_(cond, [&] { lowerScoped(s.body); });
            } else {
                b_.if_(
                    cond, [&] { lowerScoped(s.body); },
                    [&] { lowerScoped(s.elseBody); });
            }
            return;
          }
          case AstStmt::Kind::kWhile: {
            b_.loop([&] {
                ir::RegId cond = evalCond(*s.expr);
                ++loopNest_;
                b_.if_(
                    cond, [&] { lowerScoped(s.body); },
                    [&] { b_.break_(); });
                --loopNest_;
            });
            return;
          }
          case AstStmt::Kind::kFor:
            lowerFor(s);
            return;
          case AstStmt::Kind::kBreak:
            if (loopNest_ == 0)
                err(s.line, "break outside of a loop");
            b_.break_();
            return;
          case AstStmt::Kind::kContinue:
            if (loopNest_ == 0)
                err(s.line, "continue outside of a loop");
            b_.continue_();
            return;
        }
    }

    void
    lowerScoped(const std::vector<AstStmtPtr>& body)
    {
        pushScope();
        for (const auto& k : body)
            lowerStmt(*k);
        popScope();
    }

    void
    lowerPragma(const AstStmt& s)
    {
        std::istringstream iss(s.pragmaText);
        std::string word;
        iss >> word;
        if (word == "decouple") {
            ann_.decoupleOps.push_back(b_.fn().nextOpId);
        } else if (word == "distribute") {
            ann_.distributeOps.push_back(b_.fn().nextOpId);
        } else {
            phloem_warn("unknown statement pragma '", s.pragmaText, "'");
        }
    }

    void
    lowerDecl(const AstStmt& s)
    {
        for (const auto& [name, init] : s.decls) {
            Sym sym;
            sym.ty = s.declType;
            sym.reg = b_.newReg(name);
            if (init != nullptr) {
                RV v = coerce(eval(*init), sym.ty, s.line);
                b_.movTo(sym.reg, v.reg);
            } else {
                b_.constTo(sym.reg, 0);
            }
            scopes_.back()[name] = sym;
        }
    }

    static bool
    hasContinue(const std::vector<AstStmtPtr>& body)
    {
        for (const auto& s : body) {
            switch (s->kind) {
              case AstStmt::Kind::kContinue:
                return true;
              case AstStmt::Kind::kIf:
                if (hasContinue(s->body) || hasContinue(s->elseBody))
                    return true;
                break;
              case AstStmt::Kind::kBlock:
                if (hasContinue(s->body))
                    return true;
                break;
              default:
                break;  // nested loops own their continues
            }
        }
        return false;
    }

    void
    lowerFor(const AstStmt& s)
    {
        // Canonical form: for (int i = E; i < E2; i++) with a fresh
        // declaration becomes a counted ForStmt (the form Phloem's
        // decoupler and the SCAN accelerators key on).
        const AstStmt* init = s.init.get();
        bool canonical = false;
        std::string var;
        if (init != nullptr && init->kind == AstStmt::Kind::kDecl &&
            init->decls.size() == 1 && init->declType == Ty::kInt &&
            init->decls[0].second != nullptr && s.expr != nullptr &&
            s.inc != nullptr) {
            var = init->decls[0].first;
            const Expr& cond = *s.expr;
            bool cond_ok = cond.kind == Expr::Kind::kBinary &&
                           cond.op == Tok::kLt &&
                           cond.kids[0]->kind == Expr::Kind::kVar &&
                           cond.kids[0]->name == var;
            const Expr& inc = *s.inc;
            bool inc_ok =
                (inc.kind == Expr::Kind::kIncDec &&
                 inc.op == Tok::kPlusPlus &&
                 inc.kids[0]->kind == Expr::Kind::kVar &&
                 inc.kids[0]->name == var) ||
                (inc.kind == Expr::Kind::kAssign &&
                 inc.op == Tok::kPlusAssign &&
                 inc.kids[0]->kind == Expr::Kind::kVar &&
                 inc.kids[0]->name == var &&
                 inc.kids[1]->kind == Expr::Kind::kIntLit &&
                 inc.kids[1]->intValue == 1);
            canonical = cond_ok && inc_ok;
        }

        if (canonical) {
            RV start =
                coerce(eval(*init->decls[0].second), Ty::kInt, s.line);
            RV bound = coerce(eval(*s.expr->kids[1]), Ty::kInt, s.line);
            b_.forRange(
                start.reg, bound.reg,
                [&](ir::RegId iv) {
                    pushScope();
                    ++loopNest_;
                    Sym sym;
                    sym.reg = iv;
                    sym.ty = Ty::kInt;
                    scopes_.back()[var] = sym;
                    for (const auto& k : s.body)
                        lowerStmt(*k);
                    --loopNest_;
                    popScope();
                },
                var);
            return;
        }

        // General form desugars to a while loop; continue would skip the
        // increment, so reject it.
        if (hasContinue(s.body))
            err(s.line, "continue in a non-canonical for loop is "
                        "unsupported");
        pushScope();
        if (init != nullptr)
            lowerStmt(*init);
        b_.loop([&] {
            ir::RegId cond =
                s.expr != nullptr ? evalCond(*s.expr) : b_.constI(1);
            ++loopNest_;
            b_.if_(
                cond,
                [&] {
                    lowerScoped(s.body);
                    if (s.inc != nullptr)
                        eval(*s.inc);
                },
                [&] { b_.break_(); });
            --loopNest_;
        });
        popScope();
    }

    const FunctionDecl& decl_;
    ir::FunctionBuilder b_;
    Annotations ann_;
    std::vector<std::map<std::string, Sym>> scopes_;
    /** Source-level loop nesting, for break/continue placement checks. */
    int loopNest_ = 0;
};

} // namespace

std::vector<CompiledKernel>
compileC(const std::string& source)
{
    TranslationUnit tu = parse(source);
    // Flatten helper-function calls into their callers (paper Sec. IV-A
    // future work) so the decoupler sees single procedures.
    inlineCalls(tu);
    std::vector<CompiledKernel> out;
    for (const auto& fn : tu.functions) {
        CompiledKernel k = Lowerer(*fn).run();
        // Clean up lowering artifacts (single-def mov chains, dead pure
        // ops) so serial baselines and pattern-matching passes both see
        // -O1-quality code.
        ir::copyPropagate(*k.fn);
        out.push_back(std::move(k));
    }
    return out;
}

CompiledKernel
compileKernel(const std::string& source, const std::string& name)
{
    auto all = compileC(source);
    phloem_assert(!all.empty(), "no functions in source");
    if (name.empty())
        return std::move(all.front());
    for (auto& k : all) {
        if (k.fn->name == name)
            return std::move(k);
    }
    phloem_fatal("function '", name, "' not found in source");
}

} // namespace phloem::fe
