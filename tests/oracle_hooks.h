// Whole-launch observing hooks kept as test oracles for what the engine now
// records natively: ProfilerHook for LaunchOptions::profile, and
// SiteMapOracle for the prune map's site log (LaunchOptions::site_log with
// sa::prune_watch). Each runs on the instrumented tier and sees every
// dynamic instruction through the hook interface, so it checks the native
// counts through a path that shares none of their code.
#pragma once

#include <bit>

#include "sa/ace.h"
#include "sassim/instrument.h"
#include "sassim/profiler.h"
#include "sassim/program.h"

namespace gfi::sim_test {

/// Accumulates a Profile from on_before_instr, which sees the first guard
/// mask.
class ProfilerHook final : public sim::InstrumentHook {
 public:
  void on_before_instr(sim::InstrContext& ctx) override {
    const auto lanes = static_cast<u64>(std::popcount(ctx.exec_mask));
    ++profile_.warp_instrs_by_opcode[static_cast<int>(ctx.instr->op)];
    ++profile_.warp_instrs_by_group[static_cast<int>(ctx.group)];
    profile_.thread_instrs_by_group[static_cast<int>(ctx.group)] += lanes;
    ++profile_.total_warp_instrs;
    profile_.total_thread_instrs += lanes;
  }

  [[nodiscard]] const sim::Profile& profile() const { return profile_; }

 private:
  sim::Profile profile_;
};

/// Records into `map`, during one fault-free launch, every value-group
/// dynamic site whose pc is prunable, plus the per-group occurrence totals.
/// Counts occurrences in on_after_instr, the injector's eligibility
/// discipline for IOV and PRED strikes.
class SiteMapOracle final : public sim::InstrumentHook {
 public:
  explicit SiteMapOracle(sa::PruneMap& map) : map_(&map) {}

  void on_launch_begin(const sim::Program& program) override {
    code_ = program.code().data();
  }
  void on_after_instr(sim::InstrContext& ctx) override {
    const u32 pc = static_cast<u32>(ctx.instr - code_);
    const int group = static_cast<int>(ctx.group);
    const u64 occurrence = map_->occurrences[group]++;
    if (!sa::is_value_site_group(ctx.group)) return;
    const sa::SiteClass cls = map_->analysis.site_class(pc);
    if (cls == sa::SiteClass::kLive && ctx.exec_mask != 0) return;
    sa::PruneEntry entry;
    entry.occurrence = occurrence;
    entry.dyn_index = ctx.dyn_index;
    entry.pc = pc;
    entry.exec_mask = ctx.exec_mask;
    entry.op = ctx.instr->op;
    entry.cls = cls;
    map_->entries[group].push_back(entry);
  }

 private:
  sa::PruneMap* map_;
  const sim::Instr* code_ = nullptr;
};

}  // namespace gfi::sim_test
