// Predecoded program representation: the simulator's per-kernel "decode
// pass", run once per Program and cached (Program::decoded()).
//
// The executor's inner loop used to re-derive everything per dynamic warp
// instruction: instr_group() lookups, guard-mask eligibility, operand-kind
// switches over `Operand`s sitting in an `Instr` array whose std::string
// label member wrecks cache density. DecodedInstr is the dense, label-free
// answer: every field the execution core, the profiler, the tracer, the
// static-analysis passes (src/sa), and the linter need, resolved once.
//
// A DecodedProgram is immutable after construction and shared read-only
// across any number of concurrent launches — exactly like the Program it
// mirrors (injection campaigns launch the same kernel from many host
// threads at once).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "sassim/defuse.h"
#include "sassim/isa.h"

namespace gfi::sim {

/// One resolved operand: the payload of `Operand` without any need to
/// consult the opcode again. kNone reads as 0, matching the executor.
struct DecodedOperand {
  u64 imm = 0;            ///< immediate payload (bit pattern)
  OperandKind kind = OperandKind::kNone;
  u16 index = 0;          ///< register or predicate index
  bool negated = false;   ///< predicate negation (kPred only)

  [[nodiscard]] bool is_imm() const { return kind == OperandKind::kImm; }
};

/// One predecoded instruction: the hot subset of `Instr` plus everything
/// that used to be recomputed per dynamic instance. Plain data, no strings.
struct DecodedInstr {
  DecodedOperand src[3];
  u32 target = 0;          ///< resolved branch/SSY destination
  Opcode op = Opcode::kNop;
  DType dtype = DType::kU32;
  u8 sub = 0;
  u8 mem_width = 4;
  InstrGroup group = InstrGroup::kControl;  ///< instr_group(), precomputed
  u8 guard_pred = kPredT;
  bool guard_negated = false;
  /// True when the guard can mask lanes off (anything but plain @PT). An
  /// unguarded instruction's exec mask is exactly the warp's active mask,
  /// so the clean path skips the per-lane guard scan entirely.
  bool guarded = false;
  bool wide = false;       ///< dtype spans a register pair (U64/F64)
  /// No source is a predicate: every consulted operand is a register,
  /// an immediate, or absent. Precondition of the executor's full-warp
  /// vector ALU fast path (operand fetch becomes a row load/broadcast).
  bool vec_srcs = false;
  OperandKind dst_kind = OperandKind::kNone;
  u16 dst_index = 0;
};

/// The decode pass over a linked program: a dense DecodedInstr per pc plus
/// the def/use footprint table (sim::def_use) the dataflow passes, the
/// linter, and dead-site pruning all consume. Built once per kernel via
/// Program::decoded(); ~O(code size), trivially cheap next to any launch.
class DecodedProgram {
 public:
  explicit DecodedProgram(std::span<const Instr> code);

  [[nodiscard]] std::size_t size() const { return instrs_.size(); }
  [[nodiscard]] const DecodedInstr& at(std::size_t pc) const {
    return instrs_[pc];
  }
  /// Cached sim::def_use(code[pc]) — the executor-mirroring footprint.
  [[nodiscard]] const DefUse& def_use(std::size_t pc) const {
    return defuse_[pc];
  }
  [[nodiscard]] InstrGroup group(std::size_t pc) const {
    return instrs_[pc].group;
  }
  /// is_guarded(code[pc]): writes must not count as liveness kills.
  [[nodiscard]] bool guarded(std::size_t pc) const {
    return instrs_[pc].guarded;
  }

 private:
  std::vector<DecodedInstr> instrs_;
  std::vector<DefUse> defuse_;
};

}  // namespace gfi::sim
