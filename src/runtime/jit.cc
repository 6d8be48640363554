#include "runtime/jit.h"

#include <dlfcn.h>

#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "base/logging.h"
#include "ir/op.h"
#include "runtime/sched.h"
#include "sim/eval.h"

namespace phloem::rt {

// The emitted C file defines its own copy of these structs; the host
// passes its register file straight through, so the layouts must agree.
static_assert(sizeof(PhloemJitValue) == sizeof(ir::Value),
              "PhloemJitValue must mirror ir::Value");
static_assert(offsetof(PhloemJitValue, bits) == offsetof(ir::Value, bits) &&
                  offsetof(PhloemJitValue, ctrl) == offsetof(ir::Value, ctrl),
              "PhloemJitValue must mirror ir::Value");
static_assert(alignof(PhloemJitValue) == alignof(ir::Value),
              "PhloemJitValue must mirror ir::Value");

namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Opcode names the emitter must pretend not to support (tests). */
std::set<std::string>
deniedOps()
{
    std::set<std::string> out;
    const char* env = std::getenv("PHLOEM_JIT_DENY_OPS");
    if (env == nullptr)
        return out;
    std::string s(env);
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        std::string tok = s.substr(pos, comma - pos);
        for (char& c : tok)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        if (!tok.empty())
            out.insert(tok);
        pos = comma + 1;
    }
    return out;
}

std::string
sanitizeName(const std::string& name)
{
    std::string out;
    for (char c : name)
        out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0
                          ? c
                          : '_');
    if (out.empty())
        out = "stage";
    return out;
}

std::string
reg(ir::RegId r)
{
    return "regs[" + std::to_string(r) + "]";
}

/** `(int64_t)regs[r].bits` — asInt() of a source register. */
std::string
ival(ir::RegId r)
{
    return "(int64_t)" + reg(r) + ".bits";
}

/** `pj_f(regs[r].bits)` — asDouble() of a source register. */
std::string
fval(ir::RegId r)
{
    return "pj_f(" + reg(r) + ".bits)";
}

/**
 * Emit C statements assigning sim::evalScalarOp(inst) to `dst` (a
 * pj_value lvalue). Every statement reads sources before `dst.ctrl` is
 * cleared, so dst may alias a source. Returns false (with *err set) on
 * an opcode the emitter does not support.
 */
bool
emitScalarAssign(std::ostringstream& o, const sim::Inst& inst,
                 const std::string& dst, std::string* err)
{
    using ir::Opcode;
    const ir::RegId a = inst.src0;
    const ir::RegId b = inst.src1;

    auto bin = [&](const char* op) {
        o << "    " << dst << ".bits = " << reg(a) << ".bits " << op << " "
          << reg(b) << ".bits; " << dst << ".ctrl = 0u;\n";
    };
    auto cmp = [&](const char* op) {
        o << "    " << dst << ".bits = (" << ival(a) << " " << op << " "
          << ival(b) << ") ? 1u : 0u; " << dst << ".ctrl = 0u;\n";
    };
    auto fbin = [&](const char* op) {
        o << "    " << dst << ".bits = pj_fb(" << fval(a) << " " << op << " "
          << fval(b) << "); " << dst << ".ctrl = 0u;\n";
    };
    auto fcmp = [&](const char* op) {
        o << "    " << dst << ".bits = (" << fval(a) << " " << op << " "
          << fval(b) << ") ? 1u : 0u; " << dst << ".ctrl = 0u;\n";
    };

    switch (inst.opcode) {
      case Opcode::kConst:
        o << "    " << dst << ".bits = "
          << static_cast<uint64_t>(inst.imm) << "ULL; " << dst
          << ".ctrl = 0u;\n";
        return true;
      case Opcode::kMov:
        o << "    " << dst << " = " << reg(a) << ";\n";
        return true;
      case Opcode::kAdd: bin("+"); return true;
      case Opcode::kSub: bin("-"); return true;
      case Opcode::kMul: bin("*"); return true;
      case Opcode::kDiv:
        o << "    " << dst << ".bits = (uint64_t)pj_div(" << ival(a) << ", "
          << ival(b) << "); " << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kRem:
        o << "    " << dst << ".bits = (uint64_t)pj_rem(" << ival(a) << ", "
          << ival(b) << "); " << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kAnd: bin("&"); return true;
      case Opcode::kOr: bin("|"); return true;
      case Opcode::kXor: bin("^"); return true;
      case Opcode::kShl:
        o << "    " << dst << ".bits = " << reg(a) << ".bits << ("
          << reg(b) << ".bits & 63u); " << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kShr:
        o << "    " << dst << ".bits = " << reg(a) << ".bits >> ("
          << reg(b) << ".bits & 63u); " << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kMin:
        o << "    " << dst << ".bits = (" << ival(a) << " < " << ival(b)
          << ") ? " << reg(a) << ".bits : " << reg(b) << ".bits; " << dst
          << ".ctrl = 0u;\n";
        return true;
      case Opcode::kMax:
        o << "    " << dst << ".bits = (" << ival(a) << " < " << ival(b)
          << ") ? " << reg(b) << ".bits : " << reg(a) << ".bits; " << dst
          << ".ctrl = 0u;\n";
        return true;
      case Opcode::kCmpEq: cmp("=="); return true;
      case Opcode::kCmpNe: cmp("!="); return true;
      case Opcode::kCmpLt: cmp("<"); return true;
      case Opcode::kCmpLe: cmp("<="); return true;
      case Opcode::kCmpGt: cmp(">"); return true;
      case Opcode::kCmpGe: cmp(">="); return true;
      case Opcode::kNot:
        o << "    " << dst << ".bits = (" << ival(a) << " == 0) ? 1u : 0u; "
          << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kSelect:
        o << "    " << dst << " = (" << ival(a) << " != 0) ? " << reg(b)
          << " : " << reg(inst.src2) << ";\n";
        return true;
      case Opcode::kFAdd: fbin("+"); return true;
      case Opcode::kFSub: fbin("-"); return true;
      case Opcode::kFMul: fbin("*"); return true;
      case Opcode::kFDiv: fbin("/"); return true;
      case Opcode::kFNeg:
        o << "    " << dst << ".bits = pj_fb(-" << fval(a) << "); " << dst
          << ".ctrl = 0u;\n";
        return true;
      case Opcode::kFAbs:
        o << "    " << dst << ".bits = pj_fb(__builtin_fabs(" << fval(a)
          << ")); " << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kFMin:
        // std::min(f0, f1) returns f0 unless f1 < f0 (incl. NaN cases).
        o << "    " << dst << ".bits = pj_fb((" << fval(b) << " < "
          << fval(a) << ") ? " << fval(b) << " : " << fval(a) << "); "
          << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kFMax:
        // std::max(f0, f1) returns f0 unless f0 < f1 (incl. NaN cases).
        o << "    " << dst << ".bits = pj_fb((" << fval(a) << " < "
          << fval(b) << ") ? " << fval(b) << " : " << fval(a) << "); "
          << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kFCmpEq: fcmp("=="); return true;
      case Opcode::kFCmpNe: fcmp("!="); return true;
      case Opcode::kFCmpLt: fcmp("<"); return true;
      case Opcode::kFCmpLe: fcmp("<="); return true;
      case Opcode::kFCmpGt: fcmp(">"); return true;
      case Opcode::kFCmpGe: fcmp(">="); return true;
      case Opcode::kI2F:
        o << "    " << dst << ".bits = pj_fb((double)" << ival(a) << "); "
          << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kF2I:
        o << "    " << dst << ".bits = (uint64_t)pj_f2i(" << fval(a)
          << "); " << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kIsControl:
        o << "    " << dst << ".bits = (" << reg(a)
          << ".ctrl != 0u) ? 1u : 0u; " << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kCtrlCode:
        o << "    " << dst << ".bits = (" << reg(a) << ".ctrl != 0u)"
          << " ? (uint64_t)(" << reg(a) << ".ctrl - 1u) : (uint64_t)-1; "
          << dst << ".ctrl = 0u;\n";
        return true;
      case Opcode::kWork:
        o << "    " << dst << ".bits = pj_workmix(" << reg(a)
          << ".bits); " << dst << ".ctrl = 0u;\n";
        return true;
      default:
        *err = std::string("unsupported scalar opcode '") +
               ir::opcodeName(inst.opcode) + "'";
        return false;
    }
}

/** `opc[<opcode>] += 1;` with the name as a comment. */
std::string
countOp(ir::Opcode op)
{
    return "    opc[" + std::to_string(static_cast<int>(op)) +
           "] += 1; /* " + ir::opcodeName(op) + " */\n";
}

} // namespace

// ---------------------------------------------------------------------
// Emission.
// ---------------------------------------------------------------------

std::string
jitEmitC(const sim::Program& prog, const DecodedProgram& shape,
         const std::string& stage_name, std::string* err)
{
    const std::set<std::string> deny = deniedOps();
    for (const sim::Inst& inst : prog.code) {
        if (inst.kind != sim::Inst::Kind::kOp)
            continue;
        if (deny.count(ir::opcodeName(inst.opcode)) != 0) {
            *err = std::string("emitter: opcode '") +
                   ir::opcodeName(inst.opcode) +
                   "' denied by PHLOEM_JIT_DENY_OPS";
            return "";
        }
    }

    std::ostringstream o;
    o << "/* Generated by the Phloem JIT tier; do not edit.\n"
      << " * Stage: " << stage_name << " (" << prog.code.size()
      << " raw instructions, " << shape.fusedSites << " fused sites)\n"
      << " * Semantics mirror sim/eval.h and runtime/engine.cc exactly;\n"
      << " * queue ids are replica-relative (the host re-bases them). */\n"
      << "#include <stdint.h>\n"
      << "#include <string.h>\n"
      << "\n"
      << "typedef struct { uint64_t bits; uint32_t ctrl; } pj_value;\n"
      << "typedef struct pj_ctx pj_ctx;\n"
      << "struct pj_ctx {\n"
      << "    pj_value* regs;\n"
      << "    uint64_t* insns;\n"
      << "    uint64_t* branches;\n"
      << "    uint64_t* queue_ops;\n"
      << "    uint64_t* op_counts;\n"
      << "    uint64_t* work_sink;\n"
      << "    int32_t* pc;\n"
      << "    void* host;\n"
      << "    int (*slow_tick)(pj_ctx*);\n"
      << "    int (*push)(pj_ctx*, int32_t, const pj_value*);\n"
      << "    int (*push_dist)(pj_ctx*, int32_t, int64_t, const pj_value*);\n"
      << "    int (*pop)(pj_ctx*, int32_t, pj_value*);\n"
      << "    int (*peek)(pj_ctx*, int32_t, pj_value*);\n"
      << "    int (*barrier)(pj_ctx*);\n"
      << "    int (*load)(pj_ctx*, int32_t, int64_t, pj_value*);\n"
      << "    int (*store)(pj_ctx*, int32_t, int64_t, const pj_value*);\n"
      << "    int (*mem_op)(pj_ctx*, int32_t, pj_value*);\n"
      << "    int (*swap_arr)(pj_ctx*, int32_t, int32_t);\n"
      << "};\n"
      << "\n"
      << "static double pj_f(uint64_t b) "
      << "{ double d; memcpy(&d, &b, 8); return d; }\n"
      << "static uint64_t pj_fb(double d) "
      << "{ uint64_t b; memcpy(&b, &d, 8); return b; }\n"
      << "static uint64_t pj_workmix(uint64_t x)\n"
      << "{\n"
      << "    x ^= x >> 33;\n"
      << "    x *= 0xff51afd7ed558ccdULL;\n"
      << "    x ^= x >> 33;\n"
      << "    return x;\n"
      << "}\n"
      << "static int64_t pj_div(int64_t a, int64_t b)\n"
      << "{\n"
      << "    if (b == 0) return 0;\n"
      << "    if (b == -1 && a == INT64_MIN) return a;\n"
      << "    return a / b;\n"
      << "}\n"
      << "static int64_t pj_rem(int64_t a, int64_t b)\n"
      << "{\n"
      << "    if (b == 0 || b == -1) return 0;\n"
      << "    return a % b;\n"
      << "}\n"
      << "static int64_t pj_f2i(double v)\n"
      << "{\n"
      << "    if (v != v) return 0;\n"
      << "    if (v < -9223372036854775808.0) return INT64_MIN;\n"
      << "    if (v >= 9223372036854775808.0) return INT64_MAX;\n"
      << "    return (int64_t)v;\n"
      << "}\n"
      << "\n"
      << "#define PJ_TICK(n)                                        \\\n"
      << "    do {                                                  \\\n"
      << "        *insns += (n);                                    \\\n"
      << "        hb += (n);                                        \\\n"
      << "        if (hb >= " << kHeartbeatInterval << "u) {        \\\n"
      << "            if (!ctx->slow_tick(ctx))                     \\\n"
      << "                goto done;                                \\\n"
      << "            hb = 0u;                                      \\\n"
      << "        }                                                 \\\n"
      << "    } while (0)\n"
      << "\n"
      << "void phloem_jit_run(pj_ctx* ctx)\n"
      << "{\n"
      << "    pj_value* regs = ctx->regs;\n"
      << "    uint64_t* insns = ctx->insns;\n"
      << "    uint64_t* brs = ctx->branches;\n"
      << "    uint64_t* qops = ctx->queue_ops;\n"
      << "    uint64_t* opc = ctx->op_counts;\n"
      << "    int32_t* pcs = ctx->pc;\n"
      << "    uint64_t hb = 0u;\n"
      << "    pj_value t;\n"
      << "    t.bits = 0u; t.ctrl = 0u;\n"
      << "    (void)regs; (void)brs; (void)qops; (void)opc;\n"
      << "    (void)pcs; (void)t;\n";

    for (size_t i = 0; i < shape.code.size(); ++i) {
        const DInst& d = shape.code[i];
        o << "L" << i << ":;\n";
        switch (d.op) {
          case DOp::kEnd:
            o << "    goto done;\n";
            break;

          case DOp::kHalt:
            o << "    PJ_TICK(1);\n" << countOp(d.opcode)
              << "    goto done;\n";
            break;

          case DOp::kBr:
            o << "    PJ_TICK(1);\n"
              << "    *brs += 1;\n"
              << "    goto L" << d.target << ";\n";
            break;

          case DOp::kBrIf:
          case DOp::kBrIfNot:
            o << "    PJ_TICK(1);\n"
              << "    *brs += 1;\n"
              << "    if (" << ival(d.src0)
              << (d.op == DOp::kBrIf ? " != 0" : " == 0") << ") goto L"
              << d.target << ";\n";
            break;

          case DOp::kScalar:
            o << "    PJ_TICK(1);\n" << countOp(d.opcode);
            if (d.dst >= 0) {
                if (!emitScalarAssign(o, *d.raw, reg(d.dst), err))
                    return "";
            }
            break;

          case DOp::kWork:
            o << "    PJ_TICK(1);\n" << countOp(d.opcode)
              << "    t.bits = pj_workmix(" << reg(d.src0)
              << ".bits); t.ctrl = 0u;\n";
            if (d.imm > 1) {
                // The simulator charges kWork as imm uops; burn the
                // same real compute, only the first mix lands in dst.
                o << "    {\n"
                  << "        uint64_t burn = t.bits;\n"
                  << "        int64_t k;\n"
                  << "        for (k = 1; k < " << d.imm << "LL; ++k)\n"
                  << "            burn = pj_workmix(burn);\n"
                  << "        *ctx->work_sink += burn;\n"
                  << "    }\n";
            }
            if (d.dst >= 0)
                o << "    " << reg(d.dst) << " = t;\n";
            break;

          case DOp::kLoad:
            o << "    PJ_TICK(1);\n" << countOp(d.opcode)
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->load(ctx, " << d.arr << ", " << ival(d.src0)
              << ", &t)) goto done;\n";
            if (d.dst >= 0)
                o << "    " << reg(d.dst) << " = t;\n";
            break;

          case DOp::kStore:
            o << "    PJ_TICK(1);\n" << countOp(d.opcode)
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->store(ctx, " << d.arr << ", " << ival(d.src0)
              << ", &" << reg(d.src1) << ")) goto done;\n";
            if (d.dst >= 0)
                o << "    " << reg(d.dst) << ".bits = 0u; " << reg(d.dst)
                  << ".ctrl = 0u;\n";
            break;

          case DOp::kMemOther:
          case DOp::kAtomic:
            o << "    PJ_TICK(1);\n" << countOp(d.opcode)
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->mem_op(ctx, " << i << ", &t)) goto done;\n";
            if (d.dst >= 0)
                o << "    " << reg(d.dst) << " = t;\n";
            break;

          case DOp::kSwapArr:
            o << "    PJ_TICK(1);\n" << countOp(d.opcode)
              << "    if (!ctx->swap_arr(ctx, " << d.arr << ", " << d.arr2
              << ")) goto done;\n";
            break;

          case DOp::kBarrier:
            o << "    PJ_TICK(1);\n" << countOp(d.opcode)
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->barrier(ctx)) goto done;\n";
            break;

          case DOp::kEnq:
            o << "    PJ_TICK(1);\n"
              << "    *qops += 1;\n" << countOp(d.opcode)
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->push(ctx, " << d.queueRel << ", &"
              << reg(d.src0) << ")) goto done;\n";
            break;

          case DOp::kEnqCtrl:
            o << "    PJ_TICK(1);\n"
              << "    *qops += 1;\n" << countOp(d.opcode)
              << "    t.bits = 0u; t.ctrl = "
              << static_cast<uint32_t>(d.imm) + 1u << "u;\n"
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->push(ctx, " << d.queueRel
              << ", &t)) goto done;\n";
            break;

          case DOp::kEnqDist: {
            o << "    PJ_TICK(1);\n"
              << "    *qops += 1;\n" << countOp(d.opcode);
            std::string v;
            if (d.src0 < 0) {
                o << "    t.bits = 0u; t.ctrl = "
                  << static_cast<uint32_t>(d.imm) + 1u << "u;\n";
                v = "&t";
            } else {
                v = "&" + reg(d.src0);
            }
            o << "    *pcs = " << i << ";\n"
              << "    if (!ctx->push_dist(ctx, " << d.queueBase << ", "
              << ival(d.src1) << ", " << v << ")) goto done;\n";
            break;
          }

          case DOp::kDeq:
            o << "    PJ_TICK(1);\n"
              << "    *qops += 1;\n" << countOp(d.opcode)
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->pop(ctx, " << d.queueRel
              << ", &t)) goto done;\n"
              << "    " << reg(d.dst) << " = t;\n";
            if (d.handlerPc >= 0)
                o << "    if (t.ctrl != 0u) goto L" << d.handlerPc << ";\n";
            break;

          case DOp::kPeek:
            o << "    PJ_TICK(1);\n"
              << "    *qops += 1;\n" << countOp(d.opcode)
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->peek(ctx, " << d.queueRel
              << ", &t)) goto done;\n"
              << "    " << reg(d.dst) << " = t;\n";
            break;

          // Fused superinstructions: two raw instructions, kept fused.
          // Both halves retire here; slot i+1 below is only the landing
          // pad for branches entering the pair in the middle, so every
          // exit jumps explicitly (fall-through would re-run half two).
          case DOp::kScalarBr:
            o << "    PJ_TICK(2);\n" << countOp(d.opcode)
              << "    *brs += 1;\n";
            if (!emitScalarAssign(o, *d.raw, "t", err))
                return "";
            o << "    " << reg(d.dst) << " = t;\n"
              << "    if ((int64_t)t.bits "
              << (d.negate ? "== 0" : "!= 0") << ") goto L" << d.target
              << ";\n"
              << "    goto L" << i + 2 << ";\n";
            break;

          case DOp::kScalarJmp:
            o << "    PJ_TICK(2);\n" << countOp(d.opcode)
              << "    *brs += 1;\n";
            if (!emitScalarAssign(o, *d.raw, reg(d.dst), err))
                return "";
            o << "    goto L" << d.target << ";\n";
            break;

          case DOp::kScalarEnq:
            o << "    PJ_TICK(2);\n"
              << "    *qops += 1;\n" << countOp(d.opcode)
              << countOp(d.opcode2);
            if (!emitScalarAssign(o, *d.raw, "t", err))
                return "";
            o << "    " << reg(d.dst) << " = t;\n"
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->push(ctx, " << d.queueRel
              << ", &t)) goto done;\n"
              << "    goto L" << i + 2 << ";\n";
            break;

          case DOp::kLoadEnq:
            o << "    PJ_TICK(2);\n"
              << "    *qops += 1;\n" << countOp(d.opcode)
              << countOp(d.opcode2)
              << "    *pcs = " << i << ";\n"
              << "    if (!ctx->load(ctx, " << d.arr << ", " << ival(d.src0)
              << ", &t)) goto done;\n"
              << "    " << reg(d.dst) << " = t;\n"
              << "    if (!ctx->push(ctx, " << d.queueRel
              << ", &t)) goto done;\n"
              << "    goto L" << i + 2 << ";\n";
            break;

          case DOp::kCount_:
            *err = "emitter: invalid dispatch code";
            return "";
        }
    }

    o << "done:\n"
      << "    return;\n"
      << "}\n";
    return o.str();
}

// ---------------------------------------------------------------------
// Compile lifecycle: emit -> host cc -> dlopen.
// ---------------------------------------------------------------------

JitArtifact::~JitArtifact()
{
    if (dso != nullptr)
        dlclose(dso);
    if (!keep && !dir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
}

JitArtifactPtr
jitCompileStage(const sim::Program& prog, const DecodedProgram& shape,
                const std::string& stage_name)
{
    auto art = std::make_shared<JitArtifact>();
    art->fusedSites = shape.fusedSites;

    uint64_t t0 = nowNs();
    std::string err;
    std::string source = jitEmitC(prog, shape, stage_name, &err);
    art->emitNs = static_cast<double>(nowNs() - t0);
    if (source.empty()) {
        art->error = err.empty() ? "emitter produced no code" : err;
        return art;
    }

    // Artifact directory: a temp dir by default, or a named dir under
    // PHLOEM_JIT_ARTIFACT_DIR (kept, so CI can upload the emitted C).
    const char* artdir = std::getenv("PHLOEM_JIT_ARTIFACT_DIR");
    const char* keepenv = std::getenv("PHLOEM_JIT_KEEP");
    art->keep = artdir != nullptr ||
                (keepenv != nullptr && std::string(keepenv) == "1");
    std::string tmpl;
    if (artdir != nullptr) {
        std::error_code ec;
        std::filesystem::create_directories(artdir, ec);
        tmpl = std::string(artdir) + "/" + sanitizeName(stage_name) +
               "-XXXXXX";
    } else {
        tmpl = "/tmp/phloem-jit-XXXXXX";
    }
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
        art->error = "mkdtemp failed for " + tmpl;
        return art;
    }
    art->dir = buf.data();
    art->cPath = art->dir + "/stage.c";
    {
        std::ofstream f(art->cPath);
        f << source;
        if (!f.good()) {
            art->error = "failed to write " + art->cPath;
            return art;
        }
    }

    const char* cc = std::getenv("PHLOEM_JIT_CC");
    if (cc == nullptr || *cc == '\0')
        cc = "cc";
    std::string so = art->dir + "/stage.so";
    std::string errfile = art->dir + "/cc.err";
    std::string cmd = std::string(cc) + " -O2 -fPIC -shared -o '" + so +
                      "' '" + art->cPath + "' 2> '" + errfile + "'";
    t0 = nowNs();
    int rc = std::system(cmd.c_str());
    art->compileNs = static_cast<double>(nowNs() - t0);
    if (rc != 0) {
        std::string detail;
        std::ifstream f(errfile);
        if (f.good()) {
            std::ostringstream ss;
            ss << f.rdbuf();
            detail = ss.str();
            if (detail.size() > 2048)
                detail.resize(2048);
        }
        art->error = std::string(cc) + " failed (exit " +
                     std::to_string(rc) + ") for " + stage_name +
                     (detail.empty() ? "" : ": " + detail);
        return art;
    }

    t0 = nowNs();
    void* dso = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (dso == nullptr) {
        art->loadNs = static_cast<double>(nowNs() - t0);
        const char* msg = dlerror();
        art->error = "dlopen failed for " + stage_name + ": " +
                     (msg != nullptr ? msg : "unknown error");
        return art;
    }
    art->dso = dso;
    void* sym = dlsym(dso, "phloem_jit_run");
    art->loadNs = static_cast<double>(nowNs() - t0);
    if (sym == nullptr) {
        art->error = "dlsym(phloem_jit_run) failed for " + stage_name;
        return art;
    }
    art->entry = reinterpret_cast<PhloemJitEntry>(sym);
    return art;
}

// ---------------------------------------------------------------------
// JitHost: the callbacks.
// ---------------------------------------------------------------------

JitHost::JitHost(const sim::Program& prog, const EngineEnv& env,
                 int queue_offset)
    : prog_(&prog), env_(env), queueOffset_(queue_offset),
      queues_(env, &pc_)
{
}

JitHost::~JitHost() = default;

void
JitHost::run(const JitArtifact& art)
{
    phloem_assert(art.entry != nullptr, "jit artifact not loaded");
    phloem_assert(env_.stats->opCounts.size() ==
                      static_cast<size_t>(ir::kNumOpcodes),
                  "opCounts not sized for the jit tier");

    PhloemJitCtx ctx{};
    ctx.regs = reinterpret_cast<PhloemJitValue*>(env_.regs);
    ctx.instructions = &env_.stats->instructions;
    ctx.branches = &env_.stats->branches;
    ctx.queueOps = &env_.stats->queueOps;
    ctx.opCounts = env_.stats->opCounts.data();
    ctx.workSink = &workSink_;
    ctx.pc = &pc_;
    ctx.host = this;
    ctx.slowTick = &JitHost::cbSlowTick;
    ctx.push = &JitHost::cbPush;
    ctx.pushDist = &JitHost::cbPushDist;
    ctx.pop = &JitHost::cbPop;
    ctx.peek = &JitHost::cbPeek;
    ctx.barrier = &JitHost::cbBarrier;
    ctx.load = &JitHost::cbLoad;
    ctx.store = &JitHost::cbStore;
    ctx.memOp = &JitHost::cbMemOp;
    ctx.swapArr = &JitHost::cbSwapArr;

    art.entry(&ctx);

    if (eptr_) {
        std::exception_ptr e = eptr_;
        eptr_ = nullptr;
        std::rethrow_exception(e);
    }
}

// --- Callbacks. Exceptions must not unwind through the emitted C
// frame: capture them, return 0 (the code exits), rethrow in run(). ---

int
JitHost::cbSlowTick(PhloemJitCtx* c)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        h->env_.ctl->progress.fetch_add(1, std::memory_order_relaxed);
        if (h->env_.ctl->aborted())
            return 0;
        if (h->env_.stats->instructions > h->env_.ctl->opt.maxInstructions) {
            std::string msg =
                "instruction budget exceeded (" +
                std::to_string(h->env_.ctl->opt.maxInstructions) + ") in " +
                h->env_.stats->name;
            h->env_.ctl->fail(msg);
            throw std::runtime_error(msg);
        }
        Scheduler::maybeYield();
        return 1;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

int
JitHost::cbPush(PhloemJitCtx* c, int32_t rel_q, const PhloemJitValue* v)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        int abs_q = h->queueOffset_ + rel_q;
        SpscQueue& q = *(*h->env_.queues)[static_cast<size_t>(abs_q)];
        ir::Value val;
        val.bits = v->bits;
        val.ctrl = v->ctrl;
        return h->queues_.push(q, abs_q, val) ? 1 : 0;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

int
JitHost::cbPushDist(PhloemJitCtx* c, int32_t queue_base, int64_t sel,
                    const PhloemJitValue* v)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        int target = sim::distTargetReplica(sel, h->env_.numReplicas);
        int abs_q = queue_base + target * h->env_.queueStride;
        SpscQueue& q = *(*h->env_.queues)[static_cast<size_t>(abs_q)];
        ir::Value val;
        val.bits = v->bits;
        val.ctrl = v->ctrl;
        return h->queues_.push(q, abs_q, val) ? 1 : 0;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

int
JitHost::cbPop(PhloemJitCtx* c, int32_t rel_q, PhloemJitValue* v)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        int abs_q = h->queueOffset_ + rel_q;
        SpscQueue& q = *(*h->env_.queues)[static_cast<size_t>(abs_q)];
        ir::Value val;
        if (!h->queues_.pop(q, abs_q, val))
            return 0;
        v->bits = val.bits;
        v->ctrl = val.ctrl;
        return 1;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

int
JitHost::cbPeek(PhloemJitCtx* c, int32_t rel_q, PhloemJitValue* v)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        int abs_q = h->queueOffset_ + rel_q;
        SpscQueue& q = *(*h->env_.queues)[static_cast<size_t>(abs_q)];
        ir::Value val;
        if (!h->queues_.peek(q, abs_q, val))
            return 0;
        v->bits = val.bits;
        v->ctrl = val.ctrl;
        return 1;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

int
JitHost::cbBarrier(PhloemJitCtx* c)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        if (!h->env_.trace)
            return h->env_.barrier->arriveAndWait(*h->env_.ctl) ? 1 : 0;
        uint64_t t0 = h->env_.trace->now();
        bool ok = h->env_.barrier->arriveAndWait(*h->env_.ctl);
        h->env_.trace->record(trace::EventKind::kBarrierWait, -1, t0,
                              h->env_.trace->now());
        return ok ? 1 : 0;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

int
JitHost::cbLoad(PhloemJitCtx* c, int32_t arr, int64_t idx,
                PhloemJitValue* v)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        // Bindings are looked up per execution: kSwapArr may retarget
        // them at runtime, so the emitted code never caches the buffer.
        sim::ArrayBuffer* buf = h->env_.arrayBind[static_cast<size_t>(arr)];
        ir::Value out = buf->load(idx);
        v->bits = out.bits;
        v->ctrl = out.ctrl;
        return 1;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

int
JitHost::cbStore(PhloemJitCtx* c, int32_t arr, int64_t idx,
                 const PhloemJitValue* v)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        sim::ArrayBuffer* buf = h->env_.arrayBind[static_cast<size_t>(arr)];
        ir::Value val;
        val.bits = v->bits;
        val.ctrl = v->ctrl;
        buf->store(idx, val);
        return 1;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

int
JitHost::cbMemOp(PhloemJitCtx* c, int32_t pc, PhloemJitValue* v)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        const sim::Inst& inst = h->prog_->code[static_cast<size_t>(pc)];
        sim::ArrayBuffer* buf =
            h->env_.arrayBind[static_cast<size_t>(inst.arr)];
        bool atomic = inst.opcode == ir::Opcode::kAtomicMin ||
                      inst.opcode == ir::Opcode::kAtomicAdd ||
                      inst.opcode == ir::Opcode::kAtomicFAdd ||
                      inst.opcode == ir::Opcode::kAtomicOr;
        ir::Value out;
        if (atomic) {
            // applyMemOp implements RMWs as load+store; serialize them
            // across stages so concurrent updates are not lost.
            std::lock_guard<std::mutex> g(h->env_.ctl->atomicsMu);
            out = sim::applyMemOp(
                inst, *buf, reinterpret_cast<const ir::Value*>(c->regs));
        } else {
            out = sim::applyMemOp(
                inst, *buf, reinterpret_cast<const ir::Value*>(c->regs));
        }
        v->bits = out.bits;
        v->ctrl = out.ctrl;
        return 1;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

int
JitHost::cbSwapArr(PhloemJitCtx* c, int32_t arr, int32_t arr2)
{
    auto* h = static_cast<JitHost*>(c->host);
    try {
        std::swap(h->env_.arrayBind[static_cast<size_t>(arr)],
                  h->env_.arrayBind[static_cast<size_t>(arr2)]);
        return 1;
    } catch (...) {
        h->eptr_ = std::current_exception();
        return 0;
    }
}

} // namespace phloem::rt
