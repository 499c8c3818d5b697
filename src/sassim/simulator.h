// The SIMT execution engine: schedules CTAs over SMs, executes warps
// instruction-by-instruction with full divergence/barrier/atomic semantics,
// drives instrumentation hooks, and reports timing and traps.
//
// A launch is strictly deterministic: CTAs are assigned to SMs in linear
// order, SMs issue in fixed order within a global cycle loop, and lanes of
// a memory/atomic instruction access memory in lane order. Determinism is
// what makes single-fault injection campaigns exactly replayable.
#pragma once

#include <array>
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

/// Pause points of a hook-free sweep (LaunchOptions::pause): the heads of
/// per-group queues of pending strike targets. Queue g < kInstrGroupCount
/// holds the next occurrence (from 0) among group g's issued instructions,
/// queue kDynQueue the next absolute dynamic warp-instruction index; kEmpty
/// marks an empty queue. The sweep returns (LaunchResult::paused) at the
/// first cycle boundary from which some head could issue within one cycle —
/// fewer than (busy SMs x issue_width) matching instructions away — before
/// any instruction of that cycle issues, and sets `due` bit q for every
/// queue q whose head is that close. A copy of the state, resumed with a
/// trigger for a due head, reaches it exactly as a launch from the start.
/// A sweep never trips its watchdog: it also pauses, with `due` empty, at
/// the boundary from which the watchdog could fire within one cycle.
struct PauseQueues {
  static constexpr std::size_t kDynQueue = kInstrGroupCount;
  static constexpr u64 kEmpty = ~0ULL;

  std::array<u64, kInstrGroupCount + 1> head = [] {
    std::array<u64, kInstrGroupCount + 1> empty{};
    empty.fill(kEmpty);
    return empty;
  }();
  u32 due = 0;  ///< out: bit q = queue q's head is within reach
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
  /// Makes the run a sweep that returns at the first pause (see
  /// PauseQueues). Hook-free launches only.
  PauseQueues* pause = nullptr;
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
  /// Those of dyn_warp_instrs this run executed on the instrumented tier:
  /// the struck instruction(s) of a triggered launch (0 if never reached),
  /// every one it executed for a launch with an untriggered hook or under
  /// EngineTier::kInstrumented, 0 for a hook-free launch. A run resumed from
  /// a LaunchState counts dyn_warp_instrs from launch start, the instructions
  /// the state inherited included, but this field only over its own.
  u64 instrumented_warp_instrs = 0;
  u64 cycles = 0;             ///< timing-model cycles
  ecc::EccCounters ecc;       ///< ECC events observed during the launch
  /// True when a triggered launch reached its last strike with work left at
  /// the next cycle boundary, and finished there on the plain clean tier.
  /// False for every other launch.
  bool downgraded = false;
  /// True when a sweep (LaunchOptions::pause) stopped at a pause with work
  /// left; the LaunchState can then be copied and resumed.
  bool paused = false;

  [[nodiscard]] bool ok() const { return !trap.fired(); }
  /// Wall-model execution time given the arch's SM clock.
  [[nodiscard]] f64 time_us(const MachineConfig& config) const {
    return static_cast<f64>(cycles) / (config.sm_clock_ghz * 1e3);
  }
};

/// One resident CTA of a launch in flight.
struct CtaState {
  u32 linear_id = 0;
  Dim3 ctaid;
  std::vector<WarpState> warps;
  std::vector<u8> shared;

  [[nodiscard]] bool finished() const {
    for (const auto& warp : warps) {
      if (!warp.done()) return false;
    }
    return true;
  }
};

/// Everything a launch mutates besides global memory, at a cycle boundary:
/// a default-constructed state is launch start. Copyable, so a sweep can be
/// paused and forked (a copy of the state plus a copy of the device's
/// GlobalMemory resumes bit-identically to the uninterrupted launch). The
/// config, memory, program, geometry, params and options are not part of
/// it: resume a state only with the ones it was started with.
struct LaunchState {
  std::vector<std::vector<CtaState>> resident;  ///< per SM, in admit order
  u64 resident_count = 0;
  u64 next_cta = 0;  ///< next linear CTA id to admit
  u64 cycle = 0;
  u64 dyn_warp = 0;
  u64 dyn_thread = 0;
  /// Issued warp instructions per group: the occurrence counters that
  /// triggers and pause queues count in.
  std::array<u64, kInstrGroupCount> issued{};

  [[nodiscard]] bool started() const { return !resident.empty(); }
};

class Simulator {
 public:
  Simulator(const MachineConfig& config, GlobalMemory& memory)
      : config_(config), memory_(memory) {}

  /// Runs `program` over `grid` x `block` threads. `params` are the 64-bit
  /// kernel parameters readable via LDC. Returns launch statistics; traps
  /// are reported in the result, launch-setup errors in the Status. Same
  /// as run() from a fresh LaunchState.
  Result<LaunchResult> launch(const Program& program, Dim3 grid, Dim3 block,
                              std::span<const u64> params,
                              const LaunchOptions& options = {});

  /// Runs `state` forward: to the end, or with options.pause to the next
  /// pause. The result counts from launch start. A resumed state arms each
  /// hook's trigger with its occurrence minus the matching instructions the
  /// state already issued (an already passed trigger is an error), so a
  /// triggered hook works unchanged; a hook without a trigger sees only
  /// the instructions this run issues. Resume only a fresh or paused state.
  Result<LaunchResult> run(LaunchState& state, const Program& program,
                           Dim3 grid, Dim3 block, std::span<const u64> params,
                           const LaunchOptions& options = {});

 private:
  struct Engine;

  const MachineConfig& config_;
  GlobalMemory& memory_;
};

}  // namespace gfi::sim
