#include "sassim/decoded.h"

namespace gfi::sim {

DecodedProgram::DecodedProgram(std::span<const Instr> code) {
  instrs_.reserve(code.size());
  defuse_.reserve(code.size());
  for (const Instr& instr : code) {
    DecodedInstr d;
    for (int i = 0; i < 3; ++i) {
      d.src[i].imm = instr.src[i].imm;
      d.src[i].kind = instr.src[i].kind;
      d.src[i].index = instr.src[i].index;
      d.src[i].negated = instr.src[i].negated;
    }
    // Unlinked targets (-1) only occur on non-control instructions, which
    // never read the field; clamp so the value is always a valid u32.
    d.target = instr.target >= 0 ? static_cast<u32>(instr.target) : 0;
    d.op = instr.op;
    d.dtype = instr.dtype;
    d.sub = instr.sub;
    d.mem_width = instr.mem_width;
    d.group = instr_group(instr);
    d.guard_pred = instr.guard_pred;
    d.guard_negated = instr.guard_negated;
    d.guarded = is_guarded(instr);
    d.wide = instr.dtype == DType::kU64 || instr.dtype == DType::kF64;
    d.vec_srcs = d.src[0].kind != OperandKind::kPred &&
                 d.src[1].kind != OperandKind::kPred &&
                 d.src[2].kind != OperandKind::kPred;
    d.dst_kind = instr.dst.kind;
    d.dst_index = instr.dst.index;
    instrs_.push_back(d);
    defuse_.push_back(sim::def_use(instr));
  }
}

}  // namespace gfi::sim
