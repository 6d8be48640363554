/**
 * @file
 * Pre-decoded instruction form the native runtime's stage workers
 * execute.
 *
 * Walking the raw sim::Inst stream (as the simulator does) pays a
 * kind-switch, an opcode classification chain (usesQueue / usesArray),
 * a full opcode switch, and a `queueOffset_ + inst.queue` pointer
 * lookup on every dynamic instruction. Decoding performs all of that
 * classification once per stage task, when the task starts:
 *
 *  - every instruction is mapped to a small dispatch code (DOp) that a
 *    handler table indexes directly — one indirect call replaces the
 *    nested switches;
 *  - queue operands are resolved to absolute SpscQueue pointers (the
 *    replica-strided arithmetic happens at decode time; only kEnqDist,
 *    whose target depends on a runtime value, still selects a ring per
 *    element);
 *  - the dominant adjacent pairs the flattener emits are fused into
 *    superinstructions (the fused DOps below) so loop headers, backedges,
 *    and produce-enqueue bodies cost one dispatch instead of two.
 *
 * Fusion keeps the 1:1 pc mapping: a fused instruction at pc i executes
 * raw instructions i and i+1 and then continues at i+2 (or the branch
 * target), while slot i+1 keeps its own standalone decoding as the
 * landing pad for branches that enter the pair in the middle. Branch
 * targets and control-handler pcs therefore need no remapping, and the
 * stage's dynamic instruction counts stay exactly equal to the
 * simulator's (which the differential tests assert).
 */

#ifndef PHLOEM_RUNTIME_DECODE_H
#define PHLOEM_RUNTIME_DECODE_H

#include <vector>

#include "runtime/queue.h"
#include "sim/program.h"

namespace phloem::rt {

/** Dispatch code of one decoded instruction. */
enum class DOp : uint8_t {
    kEnd,        ///< fell off the end of the program (counts no inst)
    kHalt,       ///< explicit kHalt op (counts one inst)
    kBr,         ///< unconditional branch
    kBrIf,       ///< branch when regs[src0] != 0
    kBrIfNot,    ///< branch when regs[src0] == 0
    kScalar,     ///< any plain scalar op, via sim::evalScalarOp
    kWork,       ///< kWork with its imm-sized burn loop
    kLoad,       ///< dst = arr[src0]
    kStore,      ///< arr[src0] = src1
    kMemOther,   ///< kPrefetch, via sim::applyMemOp
    kAtomic,     ///< RMW ops, serialized on RunControl::atomicsMu
    kSwapArr,    ///< swap two array bindings
    kBarrier,    ///< stage barrier
    kEnq,        ///< push regs[src0] to the resolved ring
    kEnqCtrl,    ///< push a control value to the resolved ring
    kEnqDist,    ///< push to the replica selected by regs[src1]
    kDeq,        ///< pop into dst; control values may transfer to handler
    kPeek,       ///< read the ring front into dst without consuming

    // Fused superinstructions (two raw instructions, one dispatch).
    kScalarBr,   ///< scalar op; conditional branch on its dst
    kScalarJmp,  ///< scalar op; unconditional branch (loop backedge)
    kScalarEnq,  ///< scalar op; enq of its dst
    kLoadEnq,    ///< load; enq of its dst

    kCount_,
};

/** Number of distinct dispatch codes (handler table size). */
constexpr size_t kNumDOps = static_cast<size_t>(DOp::kCount_);

/**
 * One decoded instruction. Hot operands are copied inline; the generic
 * scalar/memory paths evaluate through pointers to the original
 * sim::Inst so the functional semantics stay byte-identical to the
 * simulator (both call the same sim/eval.h helpers).
 */
struct DInst
{
    DOp op = DOp::kEnd;
    /** Conditional part of kScalarBr: true = branch when dst == 0. */
    bool negate = false;
    /** Primary raw opcode (per-opcode profile counts). */
    ir::Opcode opcode = ir::Opcode::kConst;
    /** Second raw opcode of a fused pair (profile counts). */
    ir::Opcode opcode2 = ir::Opcode::kConst;

    ir::RegId dst = ir::kNoReg;
    ir::RegId src0 = ir::kNoReg;
    ir::RegId src1 = ir::kNoReg;
    int64_t imm = 0;
    int32_t arr = ir::kNoArray;
    int32_t arr2 = ir::kNoArray;

    /** Branch target (branches and the branch half of fused ops). */
    int32_t target = -1;
    /** Control-handler entry pc for kDeq, or -1. */
    int32_t handlerPc = -1;

    /** Absolute (replica-resolved) queue id; -1 when no queue. */
    int32_t absQ = -1;
    /** Resolved ring; null when no queue, and for kEnqDist. */
    SpscQueue* q = nullptr;
    /** Per-replica base queue id of a kEnqDist (already relative). */
    int32_t queueBase = -1;

    /** Original instruction (generic eval paths, diagnostics). */
    const sim::Inst* raw = nullptr;
    /** Second original instruction of a fused pair. */
    const sim::Inst* raw2 = nullptr;
};

struct DecodedProgram
{
    std::vector<DInst> code;  ///< raw length + 1 (kEnd sentinel)
    /** Static fusion sites found (profiling/tests). */
    int fusedSites = 0;
};

/**
 * Decode one stage's flat program for one replica: classification,
 * fusion, and control-flow validation, with queue operands resolved
 * against the replica's queue window (absQ = queue_offset + the raw
 * queue id, q = queues[absQ]). kEnqDist keeps its replica-relative
 * base id in queueBase and selects a ring per element. `queues` may be
 * empty for serial functions (which the runtime verifies contain no
 * queue ops).
 *
 * The returned DecodedProgram stores pointers into `prog.code`; the
 * program must outlive it.
 */
DecodedProgram decodeProgram(const sim::Program& prog, int queue_offset,
                             const std::vector<SpscQueue*>& queues);

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_DECODE_H
