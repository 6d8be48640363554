#include "frontend/parser.h"

#include <algorithm>

#include "base/logging.h"
#include "frontend/lexer.h"

namespace phloem::fe {

namespace {

class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

    TranslationUnit
    run()
    {
        TranslationUnit tu;
        std::vector<std::string> pending_pragmas;
        while (peek().kind != Tok::kEof) {
            if (peek().kind == Tok::kPragma) {
                pending_pragmas.push_back(advance().text);
                continue;
            }
            auto fn = parseFunction();
            fn->pragmas = std::move(pending_pragmas);
            pending_pragmas.clear();
            tu.functions.push_back(std::move(fn));
        }
        return tu;
    }

  private:
    const Token& peek(int k = 0) const
    {
        size_t i = pos_ + static_cast<size_t>(k);
        return i < toks_.size() ? toks_[i] : toks_.back();
    }

    const Token&
    advance()
    {
        const Token& t = peek();
        if (pos_ + 1 < toks_.size())
            pos_++;
        return t;
    }

    bool
    accept(Tok kind)
    {
        if (peek().kind == kind) {
            advance();
            return true;
        }
        return false;
    }

    const Token&
    expect(Tok kind, const char* what)
    {
        if (peek().kind != kind) {
            phloem_fatal("parse error at line ", peek().line, ": expected ",
                         tokName(kind), " (", what, "), got ",
                         tokName(peek().kind), " '", peek().text, "'");
        }
        return advance();
    }

    static bool
    isTypeToken(Tok t)
    {
        return t == Tok::kInt || t == Tok::kLong || t == Tok::kDouble ||
               t == Tok::kFloat;
    }

    [[noreturn]] void
    tooDeep()
    {
        phloem_fatal("parse error at line ", peek().line,
                     ": nesting deeper than ", kMaxNesting, " levels");
    }

    /**
     * One level of nesting, held while a nested statement or operand
     * parses: every recursive path of the parser passes through one, so
     * the recursion stops at kMaxNesting levels, long before the stack.
     */
    class Nest
    {
      public:
        explicit Nest(Parser& p) : p_(p)
        {
            if (++p_.depth_ > kMaxNesting)
                p_.tooDeep();
        }
        ~Nest() { --p_.depth_; }
        Nest(const Nest&) = delete;
        Nest& operator=(const Nest&) = delete;

      private:
        Parser& p_;
    };

    /**
     * Append a child, keeping e.height current. Loops build tall trees
     * without recursing (`1+1+...+1` is left-deep), so the tree's height
     * is bounded here as well as the recursion by Nest.
     */
    void
    adopt(Expr& e, ExprPtr kid)
    {
        e.height = std::max(e.height, kid->height + 1);
        if (depth_ + e.height > kMaxNesting)
            tooDeep();
        e.kids.push_back(std::move(kid));
    }

    /** Parse a right-recursive operand one nesting level deeper. */
    ExprPtr
    nested(ExprPtr (Parser::*parse)())
    {
        Nest nest(*this);
        return (this->*parse)();
    }

    std::unique_ptr<FunctionDecl>
    parseFunction()
    {
        auto fn = std::make_unique<FunctionDecl>();
        fn->line = peek().line;
        expect(Tok::kVoid, "function return type");
        fn->name = expect(Tok::kIdent, "function name").text;
        expect(Tok::kLParen, "parameter list");
        if (!accept(Tok::kRParen)) {
            do {
                fn->params.push_back(parseParam());
            } while (accept(Tok::kComma));
            expect(Tok::kRParen, "end of parameter list");
        }
        expect(Tok::kLBrace, "function body");
        while (!accept(Tok::kRBrace))
            fn->body.push_back(parseStmt());
        return fn;
    }

    ParamDecl
    parseParam()
    {
        ParamDecl p;
        p.line = peek().line;
        if (accept(Tok::kConst))
            p.isConst = true;
        if (!isTypeToken(peek().kind)) {
            phloem_fatal("parse error at line ", peek().line,
                         ": expected parameter type");
        }
        p.baseType = advance().kind;
        if (accept(Tok::kConst))
            p.isConst = true;
        if (accept(Tok::kStar)) {
            p.isPointer = true;
            if (accept(Tok::kRestrict))
                p.isRestrict = true;
            if (accept(Tok::kConst))
                p.isConst = true;
        }
        p.name = expect(Tok::kIdent, "parameter name").text;
        return p;
    }

    AstStmtPtr
    makeStmt(AstStmt::Kind kind)
    {
        auto s = std::make_unique<AstStmt>();
        s->kind = kind;
        s->line = peek().line;
        return s;
    }

    AstStmtPtr
    parseStmt()
    {
        Nest nest(*this);
        switch (peek().kind) {
          case Tok::kPragma: {
            auto s = makeStmt(AstStmt::Kind::kPragma);
            s->pragmaText = advance().text;
            return s;
          }
          case Tok::kLBrace: {
            auto s = makeStmt(AstStmt::Kind::kBlock);
            advance();
            while (!accept(Tok::kRBrace))
                s->body.push_back(parseStmt());
            return s;
          }
          case Tok::kIf: {
            auto s = makeStmt(AstStmt::Kind::kIf);
            advance();
            expect(Tok::kLParen, "if condition");
            s->expr = parseExpr();
            expect(Tok::kRParen, "if condition");
            s->body.push_back(parseStmt());
            if (accept(Tok::kElse))
                s->elseBody.push_back(parseStmt());
            return s;
          }
          case Tok::kWhile: {
            auto s = makeStmt(AstStmt::Kind::kWhile);
            advance();
            expect(Tok::kLParen, "while condition");
            s->expr = parseExpr();
            expect(Tok::kRParen, "while condition");
            s->body.push_back(parseStmt());
            return s;
          }
          case Tok::kFor: {
            auto s = makeStmt(AstStmt::Kind::kFor);
            advance();
            expect(Tok::kLParen, "for header");
            if (peek().kind == Tok::kSemi) {
                advance();
                s->init = nullptr;
            } else if (isTypeToken(peek().kind)) {
                s->init = parseDecl();
            } else {
                auto init = makeStmt(AstStmt::Kind::kExpr);
                init->expr = parseExpr();
                expect(Tok::kSemi, "for init");
                s->init = std::move(init);
            }
            if (peek().kind != Tok::kSemi)
                s->expr = parseExpr();
            expect(Tok::kSemi, "for condition");
            if (peek().kind != Tok::kRParen)
                s->inc = parseExpr();
            expect(Tok::kRParen, "for header");
            s->body.push_back(parseStmt());
            return s;
          }
          case Tok::kBreak: {
            auto s = makeStmt(AstStmt::Kind::kBreak);
            advance();
            expect(Tok::kSemi, "break");
            return s;
          }
          case Tok::kContinue: {
            auto s = makeStmt(AstStmt::Kind::kContinue);
            advance();
            expect(Tok::kSemi, "continue");
            return s;
          }
          case Tok::kReturn: {
            // Only 'return;' is allowed in void kernels.
            advance();
            expect(Tok::kSemi, "return");
            auto s = makeStmt(AstStmt::Kind::kEmpty);
            return s;
          }
          case Tok::kSemi: {
            advance();
            return makeStmt(AstStmt::Kind::kEmpty);
          }
          case Tok::kInt:
          case Tok::kLong:
          case Tok::kDouble:
          case Tok::kFloat:
            return parseDecl();
          default: {
            auto s = makeStmt(AstStmt::Kind::kExpr);
            s->expr = parseExpr();
            expect(Tok::kSemi, "statement");
            return s;
          }
        }
    }

    AstStmtPtr
    parseDecl()
    {
        auto s = makeStmt(AstStmt::Kind::kDecl);
        Tok base = advance().kind;
        s->declType =
            (base == Tok::kDouble || base == Tok::kFloat) ? Ty::kDouble
                                                          : Ty::kInt;
        do {
            std::string name = expect(Tok::kIdent, "variable name").text;
            ExprPtr init;
            if (accept(Tok::kAssign))
                init = parseAssignRhs();
            s->decls.emplace_back(std::move(name), std::move(init));
        } while (accept(Tok::kComma));
        expect(Tok::kSemi, "declaration");
        return s;
    }

    // --- Expressions (precedence climbing). ---

    ExprPtr
    makeExpr(Expr::Kind kind)
    {
        auto e = std::make_unique<Expr>();
        e->kind = kind;
        e->line = peek().line;
        return e;
    }

    ExprPtr parseExpr() { return parseAssign(); }

    /** RHS of '=' in a declaration (no comma operator support). */
    ExprPtr parseAssignRhs() { return parseAssign(); }

    ExprPtr
    parseAssign()
    {
        ExprPtr lhs = parseCond();
        Tok k = peek().kind;
        if (k == Tok::kAssign || k == Tok::kPlusAssign ||
            k == Tok::kMinusAssign || k == Tok::kStarAssign ||
            k == Tok::kOrAssign || k == Tok::kAndAssign) {
            auto e = makeExpr(Expr::Kind::kAssign);
            e->op = advance().kind;
            adopt(*e, std::move(lhs));
            adopt(*e, nested(&Parser::parseAssign));
            return e;
        }
        return lhs;
    }

    ExprPtr
    parseCond()
    {
        ExprPtr c = parseBinary(0);
        if (peek().kind == Tok::kQuestion) {
            auto e = makeExpr(Expr::Kind::kCond);
            advance();
            adopt(*e, std::move(c));
            adopt(*e, nested(&Parser::parseExpr));
            expect(Tok::kColon, "conditional expression");
            adopt(*e, nested(&Parser::parseCond));
            return e;
        }
        return c;
    }

    static int
    precedence(Tok t)
    {
        switch (t) {
          case Tok::kPipePipe: return 1;
          case Tok::kAmpAmp: return 2;
          case Tok::kPipe: return 3;
          case Tok::kCaret: return 4;
          case Tok::kAmp: return 5;
          case Tok::kEq:
          case Tok::kNe: return 6;
          case Tok::kLt:
          case Tok::kLe:
          case Tok::kGt:
          case Tok::kGe: return 7;
          case Tok::kShl:
          case Tok::kShrTok: return 8;
          case Tok::kPlus:
          case Tok::kMinus: return 9;
          case Tok::kStar:
          case Tok::kSlash:
          case Tok::kPercent: return 10;
          default: return -1;
        }
    }

    ExprPtr
    parseBinary(int min_prec)
    {
        ExprPtr lhs = parseUnary();
        for (;;) {
            int prec = precedence(peek().kind);
            if (prec < min_prec || prec < 0)
                return lhs;
            auto e = makeExpr(Expr::Kind::kBinary);
            e->op = advance().kind;
            adopt(*e, std::move(lhs));
            adopt(*e, parseBinary(prec + 1));
            lhs = std::move(e);
        }
    }

    ExprPtr
    parseUnary()
    {
        Nest nest(*this);
        Tok k = peek().kind;
        if (k == Tok::kMinus || k == Tok::kBang || k == Tok::kTilde) {
            auto e = makeExpr(Expr::Kind::kUnary);
            e->op = advance().kind;
            adopt(*e, parseUnary());
            return e;
        }
        if (k == Tok::kPlusPlus || k == Tok::kMinusMinus) {
            auto e = makeExpr(Expr::Kind::kIncDec);
            e->op = advance().kind;
            adopt(*e, parseUnary());
            return e;
        }
        return parsePostfix();
    }

    ExprPtr
    parsePostfix()
    {
        ExprPtr e = parsePrimary();
        for (;;) {
            if (peek().kind == Tok::kLBracket) {
                advance();
                auto idx = makeExpr(Expr::Kind::kIndex);
                adopt(*idx, std::move(e));
                adopt(*idx, parseExpr());
                expect(Tok::kRBracket, "array index");
                e = std::move(idx);
            } else if (peek().kind == Tok::kPlusPlus ||
                       peek().kind == Tok::kMinusMinus) {
                auto inc = makeExpr(Expr::Kind::kIncDec);
                inc->op = advance().kind;
                adopt(*inc, std::move(e));
                e = std::move(inc);
            } else {
                return e;
            }
        }
    }

    ExprPtr
    parsePrimary()
    {
        switch (peek().kind) {
          case Tok::kIntLit: {
            auto e = makeExpr(Expr::Kind::kIntLit);
            e->intValue = advance().intValue;
            return e;
          }
          case Tok::kFloatLit: {
            auto e = makeExpr(Expr::Kind::kFloatLit);
            e->floatValue = advance().floatValue;
            return e;
          }
          case Tok::kLParen: {
            advance();
            // Support C-style casts: (int) e, (double) e.
            if (isTypeToken(peek().kind) && peek(1).kind == Tok::kRParen) {
                Tok base = advance().kind;
                expect(Tok::kRParen, "cast");
                auto e = makeExpr(Expr::Kind::kCall);
                e->name = (base == Tok::kDouble || base == Tok::kFloat)
                              ? "__cast_double"
                              : "__cast_int";
                adopt(*e, parseUnary());
                return e;
            }
            ExprPtr e = parseExpr();
            expect(Tok::kRParen, "parenthesized expression");
            return e;
          }
          case Tok::kIdent: {
            if (peek(1).kind == Tok::kLParen) {
                auto e = makeExpr(Expr::Kind::kCall);
                e->name = advance().text;
                expect(Tok::kLParen, "call");
                if (!accept(Tok::kRParen)) {
                    do {
                        adopt(*e, parseExpr());
                    } while (accept(Tok::kComma));
                    expect(Tok::kRParen, "call arguments");
                }
                return e;
            }
            auto e = makeExpr(Expr::Kind::kVar);
            e->name = advance().text;
            return e;
          }
          default:
            phloem_fatal("parse error at line ", peek().line,
                         ": unexpected token ", tokName(peek().kind));
        }
    }

    std::vector<Token> toks_;
    size_t pos_ = 0;
    /** Nesting levels currently held (see Nest). */
    int depth_ = 0;
};

} // namespace

TranslationUnit
parse(const std::string& source)
{
    return Parser(lex(source)).run();
}

} // namespace phloem::fe
