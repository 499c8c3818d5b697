// Native launch observers, filled by the engine itself on whichever tier
// runs (LaunchOptions::profile / site_log): the "profiling pass" of a
// two-phase NVBitFI-style campaign. The fault-site sampler draws from the
// Profile's counts; dead-site pruning maps its sites from the SiteLog.
#pragma once

#include <array>
#include <vector>

#include "common/types.h"
#include "sassim/isa.h"

namespace gfi::sim {

/// Per-kernel dynamic instruction profile.
struct Profile {
  std::array<u64, kOpcodeCount> warp_instrs_by_opcode{};
  std::array<u64, kInstrGroupCount> warp_instrs_by_group{};
  std::array<u64, kInstrGroupCount> thread_instrs_by_group{};
  u64 total_warp_instrs = 0;
  u64 total_thread_instrs = 0;

  [[nodiscard]] u64 group_warp_count(InstrGroup group) const {
    return warp_instrs_by_group[static_cast<int>(group)];
  }
  [[nodiscard]] u64 group_thread_count(InstrGroup group) const {
    return thread_instrs_by_group[static_cast<int>(group)];
  }
};

/// Input: one watch byte per pc. Output: one event per dynamic warp
/// instruction the watch selects, in issue order, in injector coordinates
/// (every issued instruction counts toward its group's occurrence).
struct SiteLog {
  enum Watch : u8 {
    kSkip = 0,      ///< record nothing at this pc
    kAlways = 1,    ///< record every dynamic instance
    kIfNoLane = 2,  ///< record only instances no lane executes
  };

  struct Event {
    InstrGroup group = InstrGroup::kControl;
    u64 occurrence = 0;  ///< index among the launch's instances of `group`
    u64 dyn_index = 0;   ///< global dynamic warp-instruction counter
    u32 pc = 0;
    u32 exec_mask = 0;   ///< lanes that execute
  };

  std::vector<u8> watch;
  std::vector<Event> events;
};

}  // namespace gfi::sim
