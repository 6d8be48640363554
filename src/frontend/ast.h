/**
 * @file
 * Abstract syntax tree for the mini-C frontend.
 *
 * The tree is deliberately small: the kernels Phloem targets (paper
 * Sec. VI) are single functions over restrict-qualified pointer parameters
 * with loop nests, conditionals, and scalar arithmetic.
 */

#ifndef PHLOEM_FRONTEND_AST_H
#define PHLOEM_FRONTEND_AST_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "frontend/token.h"

namespace phloem::fe {

/**
 * Deepest nesting the frontend accepts: no statement or expression sits
 * more than this many levels deep in a function body, counting both how
 * deeply the source nests and the height of the tree built from it (a
 * `1+1+...+1` chain nests shallowly but builds a left-deep tree). The
 * parser, the inliner and lowering all recurse over these trees, so
 * deeper input is a frontend error rather than a stack overflow. A fixed
 * constant, like metrics::Json::kMaxDepth.
 */
constexpr int kMaxNesting = 256;

/**
 * Most statements a translation unit may hold after inlining, nested
 * ones included. Later passes are superlinear in a function's size (a
 * call chain that doubles at every level grows exponentially, and
 * ir::copyPropagate is quadratic in its rewrites), so larger input is a
 * frontend error rather than minutes of compile time. The largest suite
 * kernel is under a tenth of it.
 */
constexpr int kMaxStatements = 1024;

/**
 * Most replicas `#pragma replicate` may ask for: the scheduler's pool
 * ceiling. The count comes from untrusted source (phloemd requests),
 * and both backends size cores, rings and tasks by it, so a larger
 * count is a frontend error.
 */
constexpr int kMaxReplicas = 256;

/** Scalar expression types. */
enum class Ty : uint8_t { kInt, kDouble };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr
{
    enum class Kind : uint8_t {
        kIntLit,
        kFloatLit,
        kVar,
        kIndex,   ///< kids[0] = base (kVar naming an array), kids[1] = index
        kUnary,   ///< op in `op`, kids[0]
        kBinary,  ///< op in `op`, kids[0], kids[1]
        kAssign,  ///< op in `op` (=, +=, ...), kids[0] = lhs, kids[1] = rhs
        kCond,    ///< kids[0] ? kids[1] : kids[2]
        kCall,    ///< name + kids as arguments
        kIncDec,  ///< ++/-- statement-level; op, kids[0] = lvalue
    };

    Kind kind;
    int line = 0;
    int64_t intValue = 0;
    double floatValue = 0;
    std::string name;
    Tok op = Tok::kEof;
    std::vector<ExprPtr> kids;
    /** Height of this subtree (a leaf is 1), kept current by the parser. */
    int height = 1;
};

struct AstStmt;
using AstStmtPtr = std::unique_ptr<AstStmt>;

struct AstStmt
{
    enum class Kind : uint8_t {
        kExpr,
        kDecl,
        kIf,
        kFor,
        kWhile,
        kBlock,
        kBreak,
        kContinue,
        kPragma,
        kEmpty,
    };

    Kind kind;
    int line = 0;

    // kDecl.
    Ty declType = Ty::kInt;
    std::vector<std::pair<std::string, ExprPtr>> decls;

    // kExpr / conditions.
    ExprPtr expr;
    // kFor.
    AstStmtPtr init;
    ExprPtr inc;

    std::vector<AstStmtPtr> body;
    std::vector<AstStmtPtr> elseBody;

    // kPragma.
    std::string pragmaText;
};

struct ParamDecl
{
    std::string name;
    bool isPointer = false;
    bool isConst = false;
    bool isRestrict = false;
    /** For pointers: 'int' (32-bit), 'long' (64-bit), or double. */
    Tok baseType = Tok::kInt;
    int line = 0;
};

struct FunctionDecl
{
    std::string name;
    int line = 0;
    std::vector<ParamDecl> params;
    std::vector<AstStmtPtr> body;
    /** Pragma lines attached immediately before the function. */
    std::vector<std::string> pragmas;
};

struct TranslationUnit
{
    std::vector<std::unique_ptr<FunctionDecl>> functions;
};

} // namespace phloem::fe

#endif // PHLOEM_FRONTEND_AST_H
