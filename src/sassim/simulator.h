// The SIMT execution engine: schedules CTAs over SMs, executes warps
// instruction-by-instruction with full divergence/barrier/atomic semantics,
// drives instrumentation hooks, and reports timing and traps.
//
// A launch is strictly deterministic: CTAs are assigned to SMs in linear
// order, SMs issue in fixed order within a global cycle loop, and lanes of
// a memory/atomic instruction access memory in lane order. Determinism is
// what makes single-fault injection campaigns exactly replayable.
#pragma once

#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "ecc/protection.h"
#include "sassim/instrument.h"
#include "sassim/machine_config.h"
#include "sassim/memory.h"
#include "sassim/program.h"
#include "sassim/trap.h"
#include "sassim/warp.h"

namespace gfi::sim {

struct Profile;
struct SiteLog;

/// Execution tier the engine runs a launch on. There are two: the hook-free
/// clean tier (templated over exec_vec.h's SIMD row kernels) and the
/// instrumented tier that drives hooks and serves as the reference. A hooked
/// launch whose hooks all declare a strike trigger (see
/// InstrumentHook::trigger) runs everything but the struck instruction
/// clean; any other hooked launch runs instrumented from start to end. Both
/// tiers are bit-identical in every architecturally observable way —
/// results, traps, cycles, dynamic-instruction counts, journals — differing
/// only in speed.
enum class EngineTier : u8 {
  kAuto,          ///< clean whenever no hook observes (default)
  kInstrumented,  ///< always the instrumented template (no trigger)
};

/// Per-launch options.
struct LaunchOptions {
  /// Abort with kWatchdogTimeout after this many dynamic warp instructions.
  /// 0 selects the default (256M).
  u64 watchdog_instrs = 0;
  /// Instrumentation hooks, invoked in order around every instruction (or,
  /// when every hook declares a strike trigger, around its struck
  /// instruction only). A launch with no hooks runs hook-free.
  std::vector<InstrumentHook*> hooks;
  /// Native observers the engine fills itself, on whichever tier runs, so
  /// an observed launch stays hook-free. The watch holds one byte per pc.
  Profile* profile = nullptr;
  SiteLog* site_log = nullptr;
  /// Tier selection. kAuto runs clean when hook-free and up to a strike
  /// trigger, instrumented when a hook without a trigger is attached, and
  /// clean again after the last strike. kInstrumented pins the exact
  /// pre-refactor inner loop (context construction, double guard-mask
  /// computation, hook walks) for the whole launch and never honours a
  /// trigger — benchmark/equivalence baseline.
  EngineTier engine = EngineTier::kAuto;
};

/// Outcome of one kernel launch.
struct LaunchResult {
  Trap trap;  ///< fired() when the launch aborted (DUE/hang)
  u64 dyn_warp_instrs = 0;    ///< dynamic warp instructions executed
  u64 dyn_thread_instrs = 0;  ///< sum of active lanes over those
  /// Those of dyn_warp_instrs executed on the instrumented tier: the struck
  /// instruction(s) of a triggered launch (0 if never reached), all of them
  /// for a launch with an untriggered hook or under
  /// EngineTier::kInstrumented, 0 for a hook-free launch.
  u64 instrumented_warp_instrs = 0;
  u64 cycles = 0;             ///< timing-model cycles
  ecc::EccCounters ecc;       ///< ECC events observed during the launch
  /// True when a triggered launch reached its last strike with work left at
  /// the next cycle boundary, and finished there on the plain clean tier.
  /// False for every other launch.
  bool downgraded = false;

  [[nodiscard]] bool ok() const { return !trap.fired(); }
  /// Wall-model execution time given the arch's SM clock.
  [[nodiscard]] f64 time_us(const MachineConfig& config) const {
    return static_cast<f64>(cycles) / (config.sm_clock_ghz * 1e3);
  }
};

class Simulator {
 public:
  Simulator(const MachineConfig& config, GlobalMemory& memory)
      : config_(config), memory_(memory) {}

  /// Runs `program` over `grid` x `block` threads. `params` are the 64-bit
  /// kernel parameters readable via LDC. Returns launch statistics; traps
  /// are reported in the result, launch-setup errors in the Status.
  Result<LaunchResult> launch(const Program& program, Dim3 grid, Dim3 block,
                              std::span<const u64> params,
                              const LaunchOptions& options = {});

 private:
  struct Cta;
  struct Engine;

  const MachineConfig& config_;
  GlobalMemory& memory_;
};

}  // namespace gfi::sim
