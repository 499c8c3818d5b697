// NVBit-style dynamic instrumentation interface.
//
// Hooks observe and may mutate architectural state around every dynamic
// warp instruction — the same power NVBitFI's injector has on real GPUs.
// The fault injector and the tracer are InstrumentHook implementations;
// whole-launch counting (profile, site log) is native to the engine. A
// one-shot hook (the injector) declares the single instruction it needs
// through trigger(); the engine then runs everything else hook-free.
#pragma once

#include <optional>
#include <span>

#include "common/types.h"
#include "sassim/isa.h"
#include "sassim/trap.h"
#include "sassim/warp.h"

namespace gfi::sim {

class Program;

/// Context handed to hooks for one dynamic warp instruction.
struct InstrContext {
  const Instr* instr = nullptr;
  InstrGroup group = InstrGroup::kControl;
  u64 dyn_index = 0;   ///< global dynamic warp-instruction counter
  u32 cta = 0;         ///< linear CTA id
  u32 warp = 0;        ///< warp index within the CTA
  u32 exec_mask = 0;   ///< lanes that will execute (active & guard)
  WarpState* warp_state = nullptr;  ///< mutable architectural state

  /// A hook may request a synchronous trap (e.g. modeling an RF ECC
  /// double-bit detection); the executor aborts the launch with it.
  TrapKind requested_trap = TrapKind::kNone;
};

/// Where a one-shot hook does its only work in a launch: the `occurrence`-th
/// (from 0) dynamic warp instruction whose group is in `group_mask` (bit i =
/// InstrGroup i). Every issued instruction of a matching group counts,
/// including one whose guard masks off every lane. An all-groups mask makes
/// `occurrence` the instruction's absolute dynamic index.
struct StrikeTrigger {
  static constexpr u32 kAllGroups = (1u << kInstrGroupCount) - 1u;

  u32 group_mask = kAllGroups;
  u64 occurrence = 0;
};

/// Callback interface invoked by the simulator around every instruction.
///
/// A hook that declares a trigger() opts into the native strike trigger:
/// when every attached hook declares one (and the launch is not pinned to
/// EngineTier::kInstrumented), the engine counts matching instructions on
/// the hook-free clean tier and delivers on_trigger_reached() plus the
/// per-instruction callbacks for the struck instruction only. Callbacks for
/// every other instruction are not delivered, so only a hook whose
/// callbacks have no effect outside its struck instruction may declare a
/// trigger. on_launch_begin / on_launch_end are delivered as always. At the
/// first cycle boundary after the last strike the launch drops the
/// countdown, runs plain clean, and reports LaunchResult::downgraded. The
/// trigger is the only way a hooked launch leaves the instrumented tier: a
/// hook without one is called around every instruction to the end.
class InstrumentHook {
 public:
  virtual ~InstrumentHook() = default;

  /// Called once when a launch starts / finishes.
  virtual void on_launch_begin(const Program& /*program*/) {}
  virtual void on_launch_end() {}

  /// Called before the instruction executes. May mutate sources (RF /
  /// predicate injection) or request a trap.
  virtual void on_before_instr(InstrContext& /*ctx*/) {}

  /// Called after the instruction executed and wrote its destination.
  /// May mutate the destination (IOV injection).
  virtual void on_after_instr(InstrContext& /*ctx*/) {}

  /// Store-address transform (IOA injection). Returns the address actually
  /// used for lane `lane` of a store.
  virtual u64 transform_store_address(u64 addr, const InstrContext& /*ctx*/,
                                      u32 /*lane*/) {
    return addr;
  }

  /// The single instruction this hook needs to observe, or none to be
  /// called around every instruction (a tracer, test observers). See
  /// the class comment for the contract a declared trigger carries.
  [[nodiscard]] virtual std::optional<StrikeTrigger> trigger() const {
    return std::nullopt;
  }

  /// Called when the engine reaches this hook's trigger, right before the
  /// struck instruction's on_before_instr: every matching instruction
  /// before it ran without callbacks.
  virtual void on_trigger_reached() {}
};

/// RAII pairing of on_launch_begin / on_launch_end around a launch: every
/// exit path (completion, trap, watchdog, barrier deadlock) delivers the
/// end callback exactly once.
class LaunchScope {
 public:
  LaunchScope(std::span<InstrumentHook* const> hooks, const Program& program)
      : hooks_(hooks) {
    for (InstrumentHook* hook : hooks_) hook->on_launch_begin(program);
  }
  ~LaunchScope() {
    for (InstrumentHook* hook : hooks_) hook->on_launch_end();
  }
  LaunchScope(const LaunchScope&) = delete;
  LaunchScope& operator=(const LaunchScope&) = delete;

 private:
  std::span<InstrumentHook* const> hooks_;
};

}  // namespace gfi::sim
