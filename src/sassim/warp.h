// Per-warp architectural state: PC, lane masks, SIMT reconvergence stack,
// registers and predicates for 32 lanes.
#pragma once

#include <cassert>
#include <cstring>
#include <vector>

#include "common/bitutil.h"
#include "common/simd.h"
#include "common/types.h"
#include "sassim/isa.h"

namespace gfi::sim {

/// Divergence-stack entry. kSsy entries restore the pre-divergence mask at
/// the reconvergence point; kDiv entries hold the taken-path lanes waiting
/// to execute.
struct StackEntry {
  enum class Kind : u8 { kSsy, kDiv };
  u32 mask = 0;
  u32 pc = 0;
  Kind kind = Kind::kSsy;
};

class WarpState {
 public:
  WarpState(u32 warp_in_cta, u32 num_regs, u32 initial_mask)
      : warp_in_cta_(warp_in_cta),
        num_regs_(num_regs),
        active_(initial_mask),
        regs_(static_cast<std::size_t>(num_regs) * kWarpSize, 0) {}

  // --- identity ---------------------------------------------------------
  [[nodiscard]] u32 warp_in_cta() const { return warp_in_cta_; }
  [[nodiscard]] u32 num_regs() const { return num_regs_; }

  // --- control state ------------------------------------------------------
  u32 pc = 0;
  u64 ready_cycle = 0;      ///< timing model: earliest next issue
  bool at_barrier = false;

  [[nodiscard]] u32 active() const { return active_; }
  [[nodiscard]] u32 exited() const { return exited_; }
  [[nodiscard]] bool done() const { return active_ == 0 && stack_.empty(); }
  [[nodiscard]] bool fully_exited() const {
    return done() || (active_ == 0 && pending_stack_mask() == 0);
  }

  void set_active(u32 mask) { active_ = mask; }

  /// Lanes that would execute an instruction guarded by @P (or @!P when
  /// `negated`): active lanes whose guard predicate evaluates true. Both
  /// execution paths compute exec masks through this one definition.
  [[nodiscard]] u32 guard_mask(u8 p, bool negated) const {
    u32 mask = 0;
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      if (!((active_ >> lane) & 1u)) continue;
      if (pred(lane, p) != negated) mask |= 1u << lane;
    }
    return mask;
  }

  /// Bit-identical to guard_mask(), evaluated bit-parallel over the packed
  /// predicate bytes instead of lane by lane (simd::testbit_mask32: one
  /// byte-compare + movemask under AVX2, the multiply trick in the scalar
  /// backend). The clean execution path's per-instruction guard evaluation;
  /// the instrumented path keeps the per-lane walk above, whose cost is
  /// part of the preserved pre-refactor inner loop it stands in for.
  [[nodiscard]] u32 guard_mask_fast(u8 p, bool negated) const {
    if (p == kPredT) return negated ? 0u : active_;
    u32 raw = simd::testbit_mask32(preds_, p);
    if (negated) raw = ~raw;
    return raw & active_;
  }

  std::vector<StackEntry>& stack() { return stack_; }
  [[nodiscard]] const std::vector<StackEntry>& stack() const { return stack_; }

  /// Retires `lanes` permanently: removes them from the active mask and
  /// from every stack entry, then pops emptied contexts so execution can
  /// continue on any pending divergent path.
  void retire_lanes(u32 lanes);

  // --- registers ----------------------------------------------------------
  [[nodiscard]] u32 reg(u32 lane, u16 r) const {
    if (r == kRegZ) return 0;
    return regs_[index_of(lane, r)];
  }
  void set_reg(u32 lane, u16 r, u32 value) {
    if (r == kRegZ) return;
    regs_[index_of(lane, r)] = value;
  }
  /// Warp-wide register row: the 32 per-lane values of register `r` laid
  /// out contiguously ([reg][lane] storage). The executor's full-warp
  /// vector ALU path iterates rows directly; `r` must be a real register
  /// (callers handle RZ themselves).
  [[nodiscard]] const u32* row(u16 r) const { return &regs_[index_of(0, r)]; }
  [[nodiscard]] u32* row(u16 r) { return &regs_[index_of(0, r)]; }
  [[nodiscard]] u64 reg64(u32 lane, u16 r) const {
    // RZ as a pair base reads (RZ, RZ): the upper half must not alias
    // register kRegZ + 1, which is out of the register file entirely.
    if (r == kRegZ) return 0;
    return make64(reg(lane, r), reg(lane, static_cast<u16>(r + 1)));
  }
  void set_reg64(u32 lane, u16 r, u64 value) {
    if (r == kRegZ) return;
    set_reg(lane, r, lo32(value));
    set_reg(lane, static_cast<u16>(r + 1), hi32(value));
  }

  // --- predicates -----------------------------------------------------------
  [[nodiscard]] bool pred(u32 lane, u8 p) const {
    if (p == kPredT) return true;
    return (preds_[lane] >> p) & 1u;
  }
  void set_pred(u32 lane, u8 p, bool value) {
    if (p == kPredT) return;
    if (value) {
      preds_[lane] = static_cast<u8>(preds_[lane] | (1u << p));
    } else {
      preds_[lane] = static_cast<u8>(preds_[lane] & ~(1u << p));
    }
  }
  /// Sets predicate `p` of all 32 lanes at once from a lane bitmask, as the
  /// vector ISETP/FSETP paths produce one. Identical to 32 set_pred calls
  /// (writes to PT are dropped); every lane is written, matching a
  /// full-warp compare under the generic loop.
  void set_pred_row(u8 p, u32 lanemask) {
    if (p == kPredT) return;
    const u8 bit = static_cast<u8>(1u << p);
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      const u8 set = ((lanemask >> lane) & 1u) != 0 ? bit : u8{0};
      preds_[lane] = static_cast<u8>((preds_[lane] & ~bit) | set);
    }
  }

  /// Raw predicate byte of a lane (fault-injection access).
  [[nodiscard]] u8 pred_bits(u32 lane) const { return preds_[lane]; }
  void set_pred_bits(u32 lane, u8 bits) { preds_[lane] = bits; }

 private:
  [[nodiscard]] std::size_t index_of(u32 lane, u16 r) const {
    assert(lane < kWarpSize && r < num_regs_);
    return static_cast<std::size_t>(r) * kWarpSize + lane;
  }
  [[nodiscard]] u32 pending_stack_mask() const {
    u32 mask = 0;
    for (const auto& entry : stack_) mask |= entry.mask;
    return mask;
  }

  u32 warp_in_cta_;
  u32 num_regs_;
  u32 active_;
  u32 exited_ = 0;
  std::vector<StackEntry> stack_;
  std::vector<u32> regs_;  ///< [reg][lane] layout
  u8 preds_[kWarpSize] = {};
};

}  // namespace gfi::sim
