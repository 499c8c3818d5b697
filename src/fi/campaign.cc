#include "fi/campaign.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "common/bitutil.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fi/golden_cache.h"
#include "fi/journal.h"
#include "fi/planner.h"
#include "fi/wake.h"
#include "obs/heartbeat.h"
#include "obs/registry.h"
#include "recover/retry.h"
#include "sa/ace.h"
#include "sassim/device.h"
#include "workloads/workload.h"

namespace gfi::fi {
namespace {

/// Watchdog budget: generous multiple of the golden dynamic length so true
/// hangs are caught without misclassifying slow-but-progressing runs.
u64 watchdog_for(const CampaignConfig& config, u64 golden_dyn_instrs) {
  if (config.watchdog_instrs) return *config.watchdog_instrs;
  return golden_dyn_instrs * config.watchdog_multiplier +
         config.watchdog_floor;
}

/// Samples the group to strike for instruction-targeted modes, weighted by
/// dynamic frequency over the groups the mode can reach. A pinned group —
/// config.group, or a planner-assigned `stratum` — consumes no RNG draw, so
/// every other field of the record stays a pure function of (seed, index).
Result<sim::InstrGroup> sample_group(
    const CampaignConfig& config, const sim::Profile& profile, Rng& rng,
    const std::optional<sim::InstrGroup>& stratum) {
  const std::optional<sim::InstrGroup>& pinned =
      stratum ? stratum : config.group;
  if (pinned) {
    if (!mode_targets_group(config.model.mode, *pinned)) {
      return Status::invalid_argument(
          std::string("mode ") + to_string(config.model.mode) +
          " cannot target group " + sim::group_name(*pinned));
    }
    if (profile.group_warp_count(*pinned) == 0) {
      return Status::invalid_argument(
          std::string("workload '") + config.workload +
          "' executes no instructions in group " + sim::group_name(*pinned));
    }
    return *pinned;
  }
  u64 total = 0;
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    if (mode_targets_group(config.model.mode, group)) {
      total += profile.group_warp_count(group);
    }
  }
  if (total == 0) {
    return Status::invalid_argument(
        std::string("workload '") + config.workload +
        "' has no instructions eligible for mode " +
        to_string(config.model.mode));
  }
  u64 pick = rng.next_below(total);
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    if (!mode_targets_group(config.model.mode, group)) continue;
    const u64 count = profile.group_warp_count(group);
    if (pick < count) return group;
    pick -= count;
  }
  return static_cast<sim::InstrGroup>(0);  // unreachable
}

Result<FaultSite> sample_site(const CampaignConfig& config,
                              const sim::Profile& profile,
                              u64 golden_dyn_instrs, Rng& rng,
                              const std::optional<sim::InstrGroup>& stratum) {
  FaultSite site;
  site.model = config.model;
  switch (config.model.mode) {
    case InjectionMode::kIov:
    case InjectionMode::kPred:
    case InjectionMode::kIoa: {
      auto group = sample_group(config, profile, rng, stratum);
      if (!group.is_ok()) return group.status();
      site.group = group.value();
      site.target_occurrence =
          rng.next_below(profile.group_warp_count(group.value()));
      break;
    }
    case InjectionMode::kRf:
      site.target_occurrence = rng.next_below(std::max<u64>(golden_dyn_instrs, 1));
      site.reg_sel = static_cast<u16>(rng.next_u32());
      break;
    case InjectionMode::kMemory:
      break;  // the address is sampled after setup (needs the allocation map)
  }
  site.lane_sel = rng.next_u32();
  site.bit_sel = config.fixed_bit ? *config.fixed_bit : rng.next_u32();
  site.bit_sel2 = rng.next_u32();
  site.random_value = rng.next();
  return site;
}

/// A sampled pre-launch memory upset. Sampled once per injection (not per
/// attempt) so a stuck-at retry re-applies the identical fault.
struct MemoryFault {
  u64 addr = 0;
  u32 mask = 0;
};

std::optional<MemoryFault> sample_memory_fault(const sim::GlobalMemory& memory,
                                               const FaultSite& site,
                                               Rng& rng) {
  const u64 allocated = memory.bytes_allocated();
  if (allocated < 4) return std::nullopt;
  const u64 words = allocated / 4;
  MemoryFault fault;
  fault.addr = sim::GlobalMemory::kBaseAddress + rng.next_below(words) * 4;
  switch (site.model.flip) {
    case BitFlipModel::kSingle:
      fault.mask = 1u << (site.bit_sel % 32);
      break;
    case BitFlipModel::kDouble: {
      u32 b2 = site.bit_sel2 % 32;
      if (b2 == site.bit_sel % 32) b2 = (b2 + 1) % 32;
      fault.mask = (1u << (site.bit_sel % 32)) | (1u << b2);
      break;
    }
    case BitFlipModel::kRandomValue:
    case BitFlipModel::kZeroValue:
      // A whole-word upset: random multi-bit pattern (never zero).
      fault.mask = static_cast<u32>(site.random_value) | 1u;
      break;
  }
  return fault;
}

}  // namespace

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kMasked: return "Masked";
    case Outcome::kMaskedTolerated: return "Tolerated";
    case Outcome::kSdc: return "SDC";
    case Outcome::kDue: return "DUE";
    case Outcome::kHang: return "Hang";
    case Outcome::kDetectedCorrected: return "Corrected";
    case Outcome::kNotActivated: return "NotActivated";
    case Outcome::kRecoveredRetry: return "RecoveredRetry";
    case Outcome::kUnrecoverableDue: return "UnrecoverableDUE";
    case Outcome::kQuarantined: return "Quarantined";
  }
  return "?";
}

Outcome outcome_for_trap(sim::TrapKind kind) {
  return kind == sim::TrapKind::kWatchdogTimeout ? Outcome::kHang
                                                 : Outcome::kDue;
}

f64 CampaignResult::rate(Outcome outcome) const {
  if (records.empty()) return 0.0;
  return static_cast<f64>(count(outcome)) / static_cast<f64>(records.size());
}

stats::Interval CampaignResult::rate_interval(Outcome outcome) const {
  return stats::wilson_interval(count(outcome), records.size());
}

Result<Campaign::Golden> Campaign::golden_run(const CampaignConfig& config) {
  auto workload = wl::make_workload(config.workload);
  if (!workload) {
    return Status::not_found("unknown workload '" + config.workload + "'");
  }
  sim::Device device(config.machine);
  auto spec = workload->setup(device);
  if (!spec.is_ok()) return spec.status();

  // Profile natively (LaunchOptions::profile): with no hooks attached the
  // golden run takes the clean execution path.
  sim::Profile profile;
  sim::LaunchOptions options;
  options.profile = &profile;
  options.engine = config.engine;
  auto launch = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params, options);
  if (!launch.is_ok()) return launch.status();
  if (!launch.value().ok()) {
    return Status::internal("golden run of '" + config.workload +
                            "' trapped: " + launch.value().trap.to_string());
  }
  auto checked = workload->check(device);
  if (!checked.is_ok()) return checked.status();
  if (checked.value().trap != sim::TrapKind::kNone ||
      !checked.value().result.passed()) {
    return Status::internal("golden run of '" + config.workload +
                            "' failed its own reference check (max rel err " +
                            std::to_string(checked.value().result.max_rel_err) +
                            ")");
  }
  Golden golden;
  golden.profile = profile;
  golden.dyn_instrs = launch.value().dyn_warp_instrs;
  golden.cycles = launch.value().cycles;
  return golden;
}

namespace {

/// True when the analytic fast path may credit `entry` for this sampled
/// injection. Fully-dead, no-op, and predicated-off sites always qualify;
/// a kPartialDead site qualifies only under prune_dead_bits, and only when
/// every bit the sampled single/double flip would strike is statically dead
/// (mirroring injector.cc strike_iov's bit arithmetic exactly).
bool credit_allowed(const CampaignConfig& config, const sa::PruneMap& map,
                    const sa::PruneEntry& entry, const FaultSite& site) {
  if (entry.exec_mask == 0 || entry.cls != sa::SiteClass::kPartialDead) {
    return true;
  }
  if (!config.prune_dead_bits || config.model.mode != InjectionMode::kIov) {
    return false;
  }
  const sa::StaticSiteAnalysis& analysis = map.analysis;
  const u32 bits = analysis.strike_span(entry.pc) * 32u;
  if (bits == 0) return false;
  switch (config.model.flip) {
    case BitFlipModel::kSingle:
      return analysis.strike_bit_dead(entry.pc, site.bit_sel % bits);
    case BitFlipModel::kDouble: {
      const u32 b1 = site.bit_sel % bits;
      u32 b2 = site.bit_sel2 % bits;
      if (b2 == b1) b2 = (b2 + 1) % bits;
      return analysis.strike_bit_dead(entry.pc, b1) &&
             analysis.strike_bit_dead(entry.pc, b2);
    }
    case BitFlipModel::kRandomValue:
    case BitFlipModel::kZeroValue:
      return false;  // whole-footprint corruption touches the live bits
  }
  return false;
}

}  // namespace

void Campaign::credit_pruned(const sa::PruneMap& map,
                             const sa::PruneEntry& entry,
                             u64 golden_dyn_instrs, InjectionRecord& record) {
  record.effect.struck_dyn_index = entry.dyn_index;
  record.effect.struck_opcode = entry.op;
  record.effect.struck_group = *record.site.group;
  record.attempts = 1;
  record.dyn_instrs = golden_dyn_instrs;
  record.trap = sim::TrapKind::kNone;
  if (entry.exec_mask == 0) {
    record.outcome = record.pre_recovery = Outcome::kNotActivated;
    return;
  }
  record.effect.struck_lane =
      InjectorHook::pick_lane(entry.exec_mask, record.site.lane_sel);
  if (entry.cls == sa::SiteClass::kNoop) {
    record.outcome = record.pre_recovery = Outcome::kNotActivated;
    return;
  }
  record.effect.activated = true;
  record.error_magnitude = map.golden_max_rel_err;
  record.outcome = record.pre_recovery = map.golden_bitwise_equal
                                             ? Outcome::kMasked
                                             : Outcome::kMaskedTolerated;
}

namespace {

/// One slot of a chunk: its global index and planner-pinned stratum.
struct ChunkSlot {
  u64 index = 0;
  std::optional<sim::InstrGroup> stratum;
};

/// What a chunk produced for one slot.
struct SlotResult {
  Result<InjectionRecord> record = Status::internal("slot not run");
  bool pruned = false;  ///< credited by the prune map, not simulated
  /// Host time simulate() spent on the slot (strike, tail, check and
  /// retries); 0 for a credited slot.
  f64 ms = 0;
};

/// The pause queue a strike trigger counts in: its one group's, or the
/// all-groups queue keyed on the dynamic index. Any other mask has none.
std::optional<std::size_t> pause_queue(const sim::StrikeTrigger& trigger) {
  if (trigger.group_mask == sim::StrikeTrigger::kAllGroups) {
    return sim::PauseQueues::kDynQueue;
  }
  if (std::has_single_bit(trigger.group_mask)) {
    return static_cast<std::size_t>(std::countr_zero(trigger.group_mask));
  }
  return std::nullopt;
}

/// One chunk of injection slots. Construction samples every slot's site (a
/// pure function of seed, index and stratum) and credits quarantined and
/// prunable slots; the rest share one workload setup on a golden device.
/// next() hands those injections out one at a time, in sweep order: a
/// hook-free golden launch sweeps forward and pauses at the cycle boundary
/// before each strike (sim::PauseQueues). fork_into() copies the golden
/// device and launch state at that point into a work device, and
/// simulate() runs the injection — strike, tail, check, retries — on the
/// copy. The sweep stops after the last pause. Memory mode, the
/// instrumented pin, and every retry after the first attempt fork at launch
/// start instead.
///
/// next() and fork_into() must not overlap each other; simulate() calls may
/// run concurrently on distinct work devices (Workload::check is const).
class Chunk {
 public:
  Chunk(const CampaignConfig& config, const sim::Profile& profile,
        u64 golden_dyn_instrs, std::span<const ChunkSlot> slots,
        const sa::PruneMap* prune_map, obs::Registry* metrics);

  /// The next injection, with the golden device and sweep positioned at its
  /// fork point; nullopt once every injection was handed out.
  std::optional<std::size_t> next();
  /// Copies the fork point of the injection next() returned last into
  /// `work` and `state`.
  void fork_into(sim::Device& work, sim::LaunchState& state);
  /// Runs injection `index` from the copy fork_into made.
  void simulate(std::size_t index, sim::Device& work, sim::LaunchState& state);

  std::vector<SlotResult>& results() { return out_; }

 private:
  struct Pending {
    std::size_t k = 0;  ///< position in the chunk's slots
    FaultSite site;
    Rng rng;  ///< the slot's stream after sample_site (memory mode draws on)
  };
  using Queue = std::vector<std::pair<u64, std::size_t>>;  // (occurrence, p)

  Result<InjectionRecord> run(const Pending& p, sim::Device& work,
                              sim::LaunchState& state);
  /// The queued injection next in sweep order, advancing the sweep to its
  /// pause when needed; nullopt when none is left or the sweep failed.
  std::optional<std::size_t> next_on_sweep();

  const CampaignConfig& config_;
  const u64 watchdog_;
  obs::Registry* metrics_;
  obs::Counter* sweep_winstrs_ = nullptr;
  std::vector<SlotResult> out_;
  std::vector<Pending> pending_;

  std::unique_ptr<wl::Workload> workload_;
  wl::LaunchSpec spec_;
  std::unique_ptr<sim::Device> golden_;
  sim::GlobalMemory::Snapshot checkpoint_;  ///< pre-launch, for retries

  std::vector<std::size_t> at_start_;  ///< forked at launch start, in order
  std::size_t started_ = 0;
  std::array<Queue, sim::PauseQueues::kDynQueue + 1> queues_;
  std::array<std::size_t, sim::PauseQueues::kDynQueue + 1> next_{};
  sim::PauseQueues pause_;
  sim::LaunchState sweep_;
  bool watchdog_reached_ = false;
};

Chunk::Chunk(const CampaignConfig& config, const sim::Profile& profile,
             u64 golden_dyn_instrs, std::span<const ChunkSlot> slots,
             const sa::PruneMap* prune_map, obs::Registry* metrics)
    : config_(config),
      watchdog_(watchdog_for(config, golden_dyn_instrs)),
      metrics_(metrics),
      out_(slots.size()) {
  if (metrics) {
    sweep_winstrs_ = &metrics->counter("engine.dispatch.sweep_winstrs");
  }
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const u64 index = slots[k].index;
    Rng rng = Rng::for_stream(config.seed, index);
    auto site = sample_site(config, profile, golden_dyn_instrs, rng,
                            slots[k].stratum);
    if (!site.is_ok()) {
      out_[k].record = site.status();
      continue;
    }
    // Quarantined injections get their site sampled (the RNG stream and
    // thus every other record stays bit-identical) but are never simulated
    // — this is how the supervisor stops a poison injection from killing
    // worker after worker. attempts = 0 marks "never launched".
    if (!config.quarantine.empty() && config.is_quarantined(index)) {
      InjectionRecord record;
      record.site = site.value();
      record.outcome = record.pre_recovery = Outcome::kQuarantined;
      record.attempts = 0;
      record.dyn_instrs = 0;
      out_[k].record = std::move(record);
      continue;
    }
    // Poison-injection modeling for tests/chaos: placed after the
    // quarantine short-circuit so a quarantined index no longer triggers
    // its kill, and before anything of the chunk is simulated.
    if (fp::enabled()) fp::hit("inject.execute", index);

    // Analytic fast path: nothing after sample_site consumes the RNG for
    // IOV/PRED, so skipping the simulation cannot perturb any other record.
    // Partial-dead entries fall through to the full simulation unless the
    // sampled bits are all provably dead (credit_allowed).
    if (prune_map && site.value().group &&
        (config.model.mode == InjectionMode::kIov ||
         config.model.mode == InjectionMode::kPred)) {
      const sa::PruneEntry* entry = prune_map->find(
          *site.value().group, site.value().target_occurrence);
      if (entry && credit_allowed(config, *prune_map, *entry, site.value())) {
        InjectionRecord record;
        record.site = site.value();
        Campaign::credit_pruned(*prune_map, *entry, golden_dyn_instrs, record);
        out_[k].record = std::move(record);
        out_[k].pruned = true;
        continue;
      }
    }
    pending_.push_back({k, site.value(), rng});
  }
  if (!pending_.empty()) {
    auto fail_pending = [&](const Status& status) {
      for (const Pending& p : pending_) out_[p.k].record = status;
      pending_.clear();
    };
    workload_ = wl::make_workload(config.workload);
    if (!workload_) {
      fail_pending(
          Status::not_found("unknown workload '" + config.workload + "'"));
    } else {
      golden_ = std::make_unique<sim::Device>(config.machine);
      auto spec = workload_->setup(*golden_);
      if (spec.is_ok()) {
        spec_ = std::move(spec).take();
      } else {
        fail_pending(spec.status());
      }
    }
  }
  if (config.max_retries > 0 && !pending_.empty()) {
    checkpoint_ = golden_->snapshot();
  }

  // Queue each strike on the sweep by its trigger; the rest fork at launch
  // start, from the untouched golden device, before the sweep moves it.
  const bool sweep = config.model.mode != InjectionMode::kMemory &&
                     config.engine != sim::EngineTier::kInstrumented;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const std::optional<sim::StrikeTrigger> trigger =
        InjectorHook(pending_[i].site, config.machine).trigger();
    const std::optional<std::size_t> q =
        sweep && trigger ? pause_queue(*trigger) : std::nullopt;
    if (q) {
      queues_[*q].emplace_back(trigger->occurrence, i);
    } else {
      at_start_.push_back(i);
    }
  }
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    std::sort(queues_[q].begin(), queues_[q].end());
    if (!queues_[q].empty()) pause_.head[q] = queues_[q].front().first;
  }
}

std::optional<std::size_t> Chunk::next_on_sweep() {
  while (true) {
    if (watchdog_reached_) {
      // Every strike left forks at the watchdog pause, where its tail meets
      // the watchdog exactly as a launch from the start would.
      for (std::size_t q = 0; q < queues_.size(); ++q) {
        if (next_[q] < queues_[q].size()) return queues_[q][next_[q]++].second;
      }
      return std::nullopt;
    }
    // The heads due at the last pause fork from it, queue by queue; the
    // sweep moves on when none is left.
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      if (((pause_.due >> q) & 1u) == 0) continue;
      pause_.due &= ~(1u << q);
      const std::size_t p = queues_[q][next_[q]++].second;
      pause_.head[q] = next_[q] < queues_[q].size()
                           ? queues_[q][next_[q]].first
                           : sim::PauseQueues::kEmpty;
      return p;
    }
    bool left = false;
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      left = left || next_[q] < queues_[q].size();
    }
    if (!left) return std::nullopt;
    sim::LaunchOptions options;
    options.watchdog_instrs = watchdog_;
    options.engine = config_.engine;
    options.pause = &pause_;
    auto ran = golden_->run(sweep_, workload_->program(), spec_.grid,
                            spec_.block, spec_.params, options);
    if (ran.is_ok() && !ran.value().paused) {
      ran = Status::internal("golden sweep of '" + config_.workload +
                             "' ended before its last strike");
    }
    if (!ran.is_ok()) {
      for (std::size_t q = 0; q < queues_.size(); ++q) {
        for (; next_[q] < queues_[q].size(); ++next_[q]) {
          out_[pending_[queues_[q][next_[q]].second].k].record = ran.status();
        }
      }
      return std::nullopt;
    }
    watchdog_reached_ = pause_.due == 0;
  }
}

std::optional<std::size_t> Chunk::next() {
  std::optional<std::size_t> p;
  if (started_ < at_start_.size()) {
    p = at_start_[started_++];
  } else {
    p = next_on_sweep();
  }
  if (!p) {
    // Exhausted: the sweep and the golden device are no longer needed.
    if (sweep_winstrs_) sweep_winstrs_->inc(sweep_.dyn_warp);
    sweep_ = sim::LaunchState{};
    golden_.reset();
  }
  return p;
}

void Chunk::fork_into(sim::Device& work, sim::LaunchState& state) {
  // Launch-start forks are all handed out before the sweep's first step,
  // so they copy the untouched golden device and the fresh sweep state.
  work.memory() = golden_->memory();
  state = sweep_;
}

void Chunk::simulate(std::size_t index, sim::Device& work,
                     sim::LaunchState& state) {
  const auto started = std::chrono::steady_clock::now();
  SlotResult& slot = out_[pending_[index].k];
  slot.record = run(pending_[index], work, state);
  slot.ms = std::chrono::duration<f64, std::milli>(
                std::chrono::steady_clock::now() - started)
                .count();
}

Result<InjectionRecord> Chunk::run(const Pending& p, sim::Device& work,
                                   sim::LaunchState& state) {
  const CampaignConfig& config = config_;
  const bool memory_mode = config.model.mode == InjectionMode::kMemory;
  const bool stuck_at =
      config.model.persistence == FaultPersistence::kStuckAt;
  Rng rng = p.rng;
  InjectionRecord record;
  record.site = p.site;

  // Memory mode samples its struck word once, before any attempt, so a
  // stuck-at retry re-applies the identical upset (and so the rng sequence
  // matches pre-recovery campaigns bit-exactly).
  std::optional<MemoryFault> mem_fault;
  if (memory_mode) {
    mem_fault = sample_memory_fault(work.memory(), p.site, rng);
  }

  bool not_activated = false;
  u64 first_launch_sbe = 0;
  std::optional<wl::Workload::Checked> final_check;

  // Dispatch-tier telemetry, keyed on what the engine actually ran
  // (LaunchResult::instrumented_warp_instrs, LaunchResult::downgraded)
  // rather than what the launch requested: downgrades after the strike,
  // and dynamic warp instructions per tier. A forked launch's count
  // includes the prefix it inherited from the sweep, so instrumented +
  // fast + inherited sum to the launched records' journal `dyn` total
  // (sweep_winstrs counts what the golden sweeps executed). Purely
  // additive: counters go only to --metrics-out snapshots, never journals,
  // so tier pins cannot perturb journal diffs.
  obs::Counter* tier_downgrades = nullptr;
  obs::Counter* instrumented_winstrs = nullptr;
  obs::Counter* fast_winstrs = nullptr;
  obs::Counter* inherited_winstrs = nullptr;
  if (metrics_) {
    tier_downgrades = &metrics_->counter("engine.dispatch.downgrades");
    instrumented_winstrs =
        &metrics_->counter("engine.dispatch.instrumented_winstrs");
    fast_winstrs = &metrics_->counter("engine.dispatch.fast_winstrs");
    inherited_winstrs =
        &metrics_->counter("engine.dispatch.inherited_winstrs");
  }

  // One attempt = arm fault (if due) + launch + result check. The retry
  // executor restores the pre-launch checkpoint between calls, and a retry
  // launches from launch start, so every retry sees bit-identical initial
  // device state.
  auto attempt_fn = [&](u32 attempt) -> Result<recover::Attempt> {
    const bool armed = attempt == 0 || stuck_at;
    if (attempt > 0) state = sim::LaunchState{};
    const u64 inherited = state.dyn_warp;
    InjectorHook injector(p.site, work.config());
    sim::LaunchOptions options;
    options.watchdog_instrs = watchdog_;
    options.engine = config.engine;
    if (memory_mode) {
      if (armed && mem_fault) {
        work.memory().inject_fault(mem_fault->addr, mem_fault->mask);
      }
    } else if (armed) {
      options.hooks.push_back(&injector);
    }
    auto launch = work.run(state, workload_->program(), spec_.grid,
                           spec_.block, spec_.params, options);
    if (!launch.is_ok()) return launch.status();
    if (metrics_) {
      const sim::LaunchResult& ran = launch.value();
      if (ran.downgraded) tier_downgrades->inc();
      instrumented_winstrs->inc(ran.instrumented_warp_instrs);
      inherited_winstrs->inc(inherited);
      fast_winstrs->inc(ran.dyn_warp_instrs - ran.instrumented_warp_instrs -
                        inherited);
    }
    if (attempt == 0) {
      if (memory_mode) {
        record.effect.activated = mem_fault.has_value();
      } else {
        record.effect = injector.effect();
      }
      first_launch_sbe = launch.value().ecc.corrected_sbe;
    }

    recover::Attempt result;
    result.dyn_instrs = launch.value().dyn_warp_instrs;
    final_check.reset();
    if (launch.value().trap.fired()) {
      result.trap = launch.value().trap;
      return result;
    }
    if (attempt == 0 && !memory_mode && !record.effect.activated) {
      not_activated = true;  // site predicated off; output is golden
      return result;
    }
    auto checked = workload_->check(work);
    if (!checked.is_ok()) return checked.status();
    final_check = checked.value();
    if (checked.value().trap != sim::TrapKind::kNone) {
      // DBE consumed during result copy-back: detected at the API boundary.
      result.trap.kind = checked.value().trap;
    }
    return result;
  };

  auto executed = recover::run_with_retry(
      work, checkpoint_, recover::RetryPolicy{config.max_retries}, attempt_fn);
  if (!executed.is_ok()) return executed.status();
  const recover::RetryResult& retry = executed.value();
  record.attempts = retry.attempts;
  record.dyn_instrs = retry.total_dyn_instrs;

  if (retry.gave_up()) {
    record.trap = retry.last_trap.kind;
    record.pre_recovery = outcome_for_trap(retry.first_trap.kind);
    // With recovery off the historical labels (DUE / Hang) stand unchanged.
    record.outcome = config.max_retries == 0 ? record.pre_recovery
                                             : Outcome::kUnrecoverableDue;
    return record;
  }

  if (not_activated) {
    record.outcome = record.pre_recovery = Outcome::kNotActivated;
    return record;
  }

  // Final attempt completed and was checked.
  const wl::CheckResult& result = final_check->result;
  record.error_magnitude = result.max_rel_err;
  if (retry.recovered()) {
    // The run would have been lost without recovery; record what was
    // detected and whether the relaunch actually produced a good answer.
    record.trap = retry.first_trap.kind;
    record.pre_recovery = outcome_for_trap(retry.first_trap.kind);
    record.outcome =
        result.passed() ? Outcome::kRecoveredRetry : Outcome::kSdc;
    return record;
  }
  if (record.effect.corrected_by_ecc) {
    record.outcome = Outcome::kDetectedCorrected;
  } else if (result.bitwise_equal) {
    // For memory mode, credit ECC when the launch observed corrections.
    record.outcome = (memory_mode && first_launch_sbe > 0)
                         ? Outcome::kDetectedCorrected
                         : Outcome::kMasked;
  } else if (result.within_tolerance) {
    record.outcome = Outcome::kMaskedTolerated;
  } else {
    record.outcome = Outcome::kSdc;
  }
  record.pre_recovery = record.outcome;
  return record;
}

/// Runs `count` chunks over `pool`. The pool's threads share one chunk at a
/// time: under a lock, a thread advances the chunk's golden sweep to its
/// next fork point and copies it into its own work device and state, then
/// runs the tail unlocked. So one golden sweep is in flight, a campaign
/// holds one golden launch state beside one work state per pool thread,
/// and the pool balances per injection. When the chunk runs dry, the
/// calling thread opens the next one (`open(c)` builds chunk c) and takes
/// its sweep to the first fork point: the golden states' launch-time
/// allocations then all come from the calling thread, not from whichever
/// pool thread happens to be first. `commit(c, chunk)` runs once per chunk,
/// under the lock, after its last injection; with one pool thread it runs
/// before the next chunk opens, so chunks commit in order.
void run_chunks(
    ThreadPool& pool, const sim::MachineConfig& machine, std::size_t count,
    const std::function<std::unique_ptr<Chunk>(std::size_t)>& open,
    const std::function<void(std::size_t, Chunk&)>& commit) {
  struct Open {
    std::size_t id = 0;
    std::unique_ptr<Chunk> chunk;
    std::optional<std::size_t> first;  ///< the fork point open() prepared
    std::size_t running = 0;  ///< injections handed out, not yet done
    bool dry = false;         ///< every injection was handed out
  };
  std::mutex mu;
  std::condition_variable cv;
  std::list<Open> live;  // open chunks, oldest first; the last hands out
  bool wanted = false;   // the pool waits for the next chunk
  bool done = false;     // every chunk was opened, or a thread failed
  std::exception_ptr failed;
  // Commits and drops `it` once it is dry and nothing of it runs.
  auto settle = [&](std::list<Open>::iterator it) {
    if (it->dry && it->running == 0) {
      commit(it->id, *it->chunk);
      live.erase(it);
    }
  };

  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([&] {
      sim::Device work(machine);
      sim::LaunchState state;
      std::unique_lock<std::mutex> lock(mu);
      try {
        while (true) {
          std::optional<std::size_t> index;
          auto job = live.end();
          if (!live.empty() && !live.back().dry) {
            job = std::prev(live.end());
            index = job->first ? std::exchange(job->first, std::nullopt)
                               : job->chunk->next();
            if (!index) {
              job->dry = true;
              settle(job);
              continue;
            }
          } else if (done) {
            return;
          } else {
            wanted = true;
            cv.notify_all();
            cv.wait(lock, [&] {
              return done || (!live.empty() && !live.back().dry);
            });
            continue;
          }
          job->chunk->fork_into(work, state);
          ++job->running;
          lock.unlock();
          job->chunk->simulate(*index, work, state);
          lock.lock();
          --job->running;
          settle(job);
        }
      } catch (...) {
        if (!lock.owns_lock()) lock.lock();
        if (!failed) failed = std::current_exception();
        done = true;
        cv.notify_all();
      }
    });
  }

  std::unique_lock<std::mutex> lock(mu);
  try {
    for (std::size_t c = 0; c < count; ++c) {
      cv.wait(lock, [&] { return done || wanted; });
      if (done) break;
      lock.unlock();
      std::unique_ptr<Chunk> chunk = open(c);
      std::optional<std::size_t> first = chunk->next();
      lock.lock();
      wanted = false;
      live.push_back(Open{c, std::move(chunk), first, 0, false});
      cv.notify_all();
    }
  } catch (...) {
    if (!lock.owns_lock()) lock.lock();
    if (!failed) failed = std::current_exception();
  }
  done = true;
  cv.notify_all();
  lock.unlock();
  pool.wait_idle();
  if (failed) std::rethrow_exception(failed);
}

}  // namespace

Result<InjectionRecord> Campaign::run_single(
    const CampaignConfig& config, const sim::Profile& profile,
    u64 golden_dyn_instrs, std::size_t run_index,
    const sa::PruneMap* prune_map, bool* pruned_out, obs::Registry* metrics,
    std::optional<sim::InstrGroup> stratum) {
  const ChunkSlot slot{run_index, stratum};
  Chunk chunk(config, profile, golden_dyn_instrs, {&slot, 1}, prune_map,
              metrics);
  sim::Device work(config.machine);
  sim::LaunchState state;
  while (const std::optional<std::size_t> index = chunk.next()) {
    chunk.fork_into(work, state);
    chunk.simulate(*index, work, state);
  }
  SlotResult& ran = chunk.results()[0];
  if (ran.pruned && pruned_out) *pruned_out = true;
  return std::move(ran.record);
}

Result<sa::PruneMap> Campaign::build_prune_map(const CampaignConfig& config) {
  auto workload = wl::make_workload(config.workload);
  if (!workload) {
    return Status::not_found("unknown workload '" + config.workload + "'");
  }
  sim::Device device(config.machine);
  auto spec = workload->setup(device);
  if (!spec.is_ok()) return spec.status();

  // Hook-free: the engine logs the watched sites and the per-group totals
  // natively, on whichever tier config.engine selects.
  sa::PruneMap map;
  map.analysis = sa::StaticSiteAnalysis::analyze(workload->program());
  sim::SiteLog sites;
  sites.watch = sa::prune_watch(workload->program(), map.analysis);
  sim::Profile profile;
  sim::LaunchOptions options;
  options.site_log = &sites;
  options.profile = &profile;
  options.engine = config.engine;
  auto launch = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params, options);
  if (!launch.is_ok()) return launch.status();
  if (!launch.value().ok()) {
    return Status::internal("prune-map run of '" + config.workload +
                            "' trapped: " + launch.value().trap.to_string());
  }
  auto checked = workload->check(device);
  if (!checked.is_ok()) return checked.status();
  if (checked.value().trap != sim::TrapKind::kNone) {
    return Status::internal("prune-map check of '" + config.workload +
                            "' trapped");
  }
  map.record(workload->program(), sites, profile);
  map.golden_bitwise_equal = checked.value().result.bitwise_equal;
  map.golden_max_rel_err = checked.value().result.max_rel_err;
  return map;
}

Result<CampaignResult> Campaign::run(const CampaignConfig& config_in) {
  // Local normalized copy: the quarantine set is sorted once here so the
  // binary-search lookup inside the hot loop is valid, and everything below
  // (journal headers included) sees the same view.
  CampaignConfig config = config_in;
  config.normalize_quarantine();
  if (config.num_injections == 0) {
    return Status::invalid_argument("num_injections must be > 0");
  }
  if (config.shard_count == 0) {
    return Status::invalid_argument("shard_count must be > 0");
  }
  if (config.shard_index >= config.shard_count) {
    return Status::invalid_argument(
        "shard_index " + std::to_string(config.shard_index) +
        " out of range for shard_count " +
        std::to_string(config.shard_count));
  }
  if (config.planner.active() && config.shard_count > 1 &&
      !config.planner.plan_path) {
    return Status::invalid_argument(
        "adaptive planner: a sharded campaign cannot make planner decisions "
        "locally (no shard sees the full record prefix a decision needs) — "
        "run it under `gpufi run`, which publishes a plan file the workers "
        "follow");
  }
  obs::Registry& reg = config.metrics ? *config.metrics
                                      : obs::Registry::global();

  // Golden-cache effectiveness: the cache is process-wide, so attribute the
  // delta this lookup produced rather than its absolute totals.
  const std::size_t cache_hits_before = GoldenCache::instance().hits();
  const std::size_t cache_misses_before = GoldenCache::instance().misses();
  auto golden = GoldenCache::instance().get_or_run(config);
  reg.counter("campaign.golden_cache.hits")
      .inc(GoldenCache::instance().hits() - cache_hits_before);
  reg.counter("campaign.golden_cache.misses")
      .inc(GoldenCache::instance().misses() - cache_misses_before);
  if (!golden.is_ok()) return golden.status();

  CampaignResult result;
  result.config = config;
  result.profile = golden.value().profile;
  result.golden_dyn_instrs = golden.value().dyn_instrs;
  result.golden_cycles = golden.value().cycles;
  // This shard's strided slice of the global index space. Injection i
  // depends only on (seed, i), so the partition is bit-exact.
  for (u64 i = config.shard_index; i < config.num_injections;
       i += config.shard_count) {
    result.run_indices.push_back(i);
  }
  result.records.resize(result.run_indices.size());

  // Journal: restore completed injections, then append the rest. Planner
  // decisions journaled by the interrupted run are restored alongside them —
  // resume must replay the identical schedule, not recompute a fresh one.
  std::vector<u8> done(result.run_indices.size(), 0);
  std::map<u64, PlanEvent> journaled_allocs;  // checkpoint -> allocation
  std::optional<u64> journaled_stop;
  std::unique_ptr<JournalWriter> writer;
  if (config.journal_path) {
    const std::string& path = *config.journal_path;
    Result<JournalContents> loaded = Journal::load(path);
    if (!loaded.is_ok() &&
        loaded.status().code() != StatusCode::kNotFound &&
        loaded.status().code() != StatusCode::kFailedPrecondition) {
      return loaded.status();  // kFailedPrecondition = torn header: recreate
    }
    if (loaded.is_ok()) {
      auto compatible =
          check_journal_compatible(loaded.value().header, config,
                                   golden.value());
      if (!compatible.is_ok()) return compatible;
      for (const auto& [index, record] : loaded.value().records) {
        if (index >= config.num_injections ||
            index % config.shard_count != config.shard_index) {
          return Status::internal(
              "journal " + path + " contains record " +
              std::to_string(index) + " outside this shard");
        }
        const std::size_t slot =
            (index - config.shard_index) / config.shard_count;
        if (done[slot]) continue;  // duplicate append; first one wins
        done[slot] = 1;
        result.records[slot] = record;
        ++result.resumed;
      }
      for (const PlanEvent& event : loaded.value().plan) {
        if (event.kind == PlanEvent::Kind::kAlloc) {
          journaled_allocs[event.checkpoint] = event;
        } else {
          journaled_stop = event.stop_at;
        }
      }
      auto opened = JournalWriter::open_append(path,
                                               loaded.value().valid_bytes);
      if (!opened.is_ok()) return opened.status();
      writer = std::move(opened).take();
    } else {
      auto created = JournalWriter::create(
          path, make_journal_header(config, golden.value()));
      if (!created.is_ok()) return created.status();
      writer = std::move(created).take();
    }
  }

  // Static dead-site pruning: one hook-free fault-free launch maps every
  // prunable (group, occurrence) site; workers then credit those records
  // analytically instead of simulating them.
  std::optional<sa::PruneMap> prune_map;
  if ((config.prune_dead_sites || config.prune_dead_bits) &&
      (config.model.mode == InjectionMode::kIov ||
       config.model.mode == InjectionMode::kPred)) {
    auto map = build_prune_map(config);
    if (!map.is_ok()) return map.status();
    prune_map = std::move(map).take();
  }

  // Campaign metrics: handles resolved once, bumped from the workers.
  // Outcome counters include journal-restored records, so the final
  // registry snapshot totals match the merged journal's outcome counts.
  std::array<obs::Counter*, kOutcomeCount> outcome_counters{};
  for (int o = 0; o < kOutcomeCount; ++o) {
    outcome_counters[o] = &reg.counter(
        std::string("campaign.outcome.") + to_string(static_cast<Outcome>(o)));
  }
  obs::Counter& attempted = reg.counter("campaign.injections.attempted");
  obs::Counter& completed = reg.counter("campaign.injections.completed");
  obs::Counter& resumed_counter = reg.counter("campaign.injections.resumed");
  obs::Counter& pruned_counter = reg.counter("campaign.injections.pruned");
  obs::Counter& retries = reg.counter("campaign.retries");
  obs::Counter& watchdog_hangs = reg.counter("campaign.watchdog.hangs");
  // Log-spaced, 10 bins per decade over 0.01 ms .. 10 s: an injection
  // takes from tens of microseconds (toy kernels) to seconds (hangs run to
  // the watchdog), and linear bins crowd every fast kernel into bin 0.
  obs::LatencyHistogram& latency =
      reg.histogram("campaign.injection.latency_ms", 0.01, 10000.0, 60,
                    Histogram::Scale::kLog);
  reg.gauge("campaign.injections.total")
      .set(static_cast<f64>(result.run_indices.size()));
  for (std::size_t slot = 0; slot < result.run_indices.size(); ++slot) {
    if (!done[slot]) continue;
    resumed_counter.inc();
    outcome_counters[static_cast<int>(result.records[slot].outcome)]->inc();
    if (result.records[slot].pre_recovery == Outcome::kHang) {
      watchdog_hangs.inc();
    }
  }

  // Heartbeat sidecar: journaled campaigns stream per-shard progress into
  // `<journal>.status.jsonl` for `gpufi status` (obs/heartbeat.h).
  std::unique_ptr<obs::HeartbeatWriter> heartbeat;
  if (config.journal_path) {
    obs::HeartbeatState initial;
    initial.workload = config.workload;
    initial.arch = config.machine.name;
    initial.shard_index = config.shard_index;
    initial.shard_count = config.shard_count;
    initial.total = result.run_indices.size();
    initial.stop_half_width = config.planner.stop.target_half_width;
    initial.outcome_counts.assign(kOutcomeCount, 0);
    initial.done = result.resumed;
    for (std::size_t slot = 0; slot < result.run_indices.size(); ++slot) {
      if (!done[slot]) continue;
      ++initial.outcome_counts[static_cast<int>(
          result.records[slot].outcome)];
    }
    auto created = obs::HeartbeatWriter::create(
        obs::status_path_for_journal(*config.journal_path), initial,
        config.heartbeat_interval_ms);
    if (created.is_ok()) {
      heartbeat = std::move(created).take();
    } else {
      // Telemetry must never abort a campaign: run without the sidecar.
      GFI_LOG(kWarn) << "heartbeat sidecar disabled: "
                     << created.status().message();
    }
  }

  std::vector<Status> errors(result.run_indices.size());
  std::vector<u8> pruned_flags(result.run_indices.size(), 0);
  ThreadPool pool(config.threads);

  // Chunks: contiguous runs of at most kChunkSlots pending slots, each
  // simulated from one golden sweep whose injections the pool's threads
  // share (run_chunks). The supervisor blames a crashed worker's lowest
  // unjournaled index, which a chunk only narrows to its first slot; so a
  // journaled single-threaded campaign (every `gpufi run` worker) runs its
  // first kChunkSlots pending slots as chunks of one. A crash there names
  // its injection; a crash in a later chunk is not blamed, and the
  // relaunch runs that chunk slot by slot.
  std::size_t singles =
      config.journal_path && pool.size() == 1 ? kChunkSlots : 0;
  auto make_chunks = [&](const std::vector<std::size_t>& slots) {
    std::vector<std::vector<std::size_t>> chunks;
    bool open = false;
    for (const std::size_t slot : slots) {
      if (done[slot]) continue;
      if (singles > 0) {
        --singles;
        chunks.push_back({slot});
        continue;
      }
      if (!open || chunks.back().size() == kChunkSlots) {
        chunks.emplace_back();
        open = true;
      }
      chunks.back().push_back(slot);
    }
    return chunks;
  };

  // Runs `chunks` over the pool (run_chunks), then commits each chunk's
  // slots in slot order — journal, measure. `alloc` pins each slot's
  // instruction group under a stratified allocation of the block starting
  // at `b0`.
  auto run_slots = [&](const std::vector<std::vector<std::size_t>>& chunks,
                       const std::optional<PlanEvent>& alloc, u64 b0) {
    auto open = [&](std::size_t c) {
      std::vector<ChunkSlot> slots;
      for (const std::size_t slot : chunks[c]) {
        const u64 index = result.run_indices[slot];
        slots.push_back(
            {index, alloc ? Planner::group_for(*alloc, index - b0)
                          : std::nullopt});
      }
      attempted.inc(slots.size());
      return std::make_unique<Chunk>(config, result.profile,
                                     result.golden_dyn_instrs, slots,
                                     prune_map ? &*prune_map : nullptr, &reg);
    };
    auto commit = [&](std::size_t c, Chunk& chunk) {
      std::vector<SlotResult>& ran = chunk.results();
      for (std::size_t k = 0; k < chunks[c].size(); ++k) {
        const std::size_t slot = chunks[c][k];
        // Generic chaos site: "worker dies at the n-th record it commits"
        // (or at a specific global index via key=). The kill is executed
        // inside fp::hit, mid-shard, after n-1 records are already
        // journaled — which is exactly the crash shape the supervisor must
        // recover from.
        if (fp::enabled()) {
          fp::hit("campaign.injection", result.run_indices[slot]);
        }
        latency.observe(ran[k].ms);
        pruned_flags[slot] = ran[k].pruned ? 1 : 0;
        if (ran[k].pruned) pruned_counter.inc();
        if (!ran[k].record.is_ok()) {
          errors[slot] = ran[k].record.status();
          continue;
        }
        result.records[slot] = std::move(ran[k].record).take();
        if (writer) {
          errors[slot] =
              writer->append(result.run_indices[slot], result.records[slot]);
        }
        const InjectionRecord& final_record = result.records[slot];
        completed.inc();
        outcome_counters[static_cast<int>(final_record.outcome)]->inc();
        if (final_record.attempts > 1) retries.inc(final_record.attempts - 1);
        if (final_record.pre_recovery == Outcome::kHang) watchdog_hangs.inc();
        // After the journal append, so status never runs ahead of the
        // journal.
        if (heartbeat) {
          heartbeat->record(static_cast<int>(final_record.outcome));
        }
      }
    };
    run_chunks(pool, config.machine, chunks.size(), open, commit);
  };

  if (!config.planner.active()) {
    // Classic fixed budget: one flat fan-out of chunks over the whole
    // slice. This path is byte-identical to pre-planner builds.
    std::vector<std::size_t> all(result.run_indices.size());
    for (std::size_t slot = 0; slot < all.size(); ++slot) all[slot] = slot;
    run_slots(make_chunks(all), std::nullopt, 0);
    result.effective_injections = config.num_injections;
  } else {
    auto planner_or = Planner::create(config, result.profile);
    if (!planner_or.is_ok()) return planner_or.status();
    Planner planner = std::move(planner_or).take();
    const u64 k = planner.checkpoint_every();
    const bool follow = config.planner.plan_path.has_value();
    // decide: unsharded (validated above) — this process holds the full
    // record prefix and makes every decision itself. follow: a `gpufi run`
    // worker replaying the supervisor's published plan.
    const bool decide = !follow;

    u64 effective = config.num_injections;
    std::optional<u64> stop_at;
    if (follow && journaled_stop) {
      // Resuming a worker journal that already recorded the supervisor's
      // stop decision: the boundary is authoritative.
      stop_at = journaled_stop;
      effective = std::min<u64>(effective, *journaled_stop);
    }

    // The supervisor's wake channel (follow mode under `gpufi run` only).
    const int wake_fd = follow ? config.planner.wake_fd : -1;
    // The published plan, tailed across waits: each wake reads only the
    // lines appended since the last one.
    std::optional<PlanFileTail> plan;
    if (follow) plan.emplace(*config.planner.plan_path, config);

    // Waits until the supervisor publishes what block `c` needs: its
    // allocation, or a stop at/before its start. The plan file is polled on
    // every wake; the wake byte itself says nothing.
    auto wait_for_plan = [&](u64 c, u64 b0) -> Result<PlanEvent> {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(config.planner.plan_wait_ms);
      while (true) {
        if (Status polled = plan->poll(); polled.is_ok()) {
          const PlanFileContents& now = plan->contents();
          if (now.stop_at && *now.stop_at <= b0) {
            PlanEvent stop;
            stop.kind = PlanEvent::Kind::kStop;
            stop.stop_at = *now.stop_at;
            return stop;
          }
          auto it = now.allocs.find(c);
          if (it != now.allocs.end()) return it->second;
        } else if (polled.code() != StatusCode::kNotFound) {
          return polled;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
          return Status::internal(
              "timed out after " +
              std::to_string(config.planner.plan_wait_ms) +
              " ms waiting for the supervisor to publish the allocation "
              "for checkpoint " + std::to_string(c) + " in " +
              *config.planner.plan_path);
        }
        // Keep the heartbeat fresh while parked, so the supervisor's stall
        // detector does not mistake waiting for a hang.
        if (heartbeat) heartbeat->idle_beat();
        if (wake_fd < 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        } else if (!wake::wait(wake_fd, 50)) {
          return Status::internal(
              "supervisor gone: its wake channel closed while waiting for "
              "the allocation for checkpoint " + std::to_string(c) + " in " +
              *config.planner.plan_path);
        }
      }
    };

    std::vector<PlanEvent> allocs_used;
    for (u64 c = 0; c * k < effective; ++c) {
      const u64 b0 = c * k;
      const u64 b1 =
          std::min<u64>(b0 + k, static_cast<u64>(config.num_injections));

      // Resolve this block's allocation (stratified campaigns only).
      std::optional<PlanEvent> alloc;
      const auto journaled = journaled_allocs.find(c);
      if (config.planner.stratify) {
        if (decide) {
          PlanEvent computed = planner.make_alloc(c);
          if (journaled != journaled_allocs.end() &&
              !(journaled->second == computed)) {
            return Status::failed_precondition(
                "journaled allocation for checkpoint " + std::to_string(c) +
                " is not reproduced by this run — the journal was written "
                "under a different plan");
          }
          alloc = computed;
        } else if (journaled != journaled_allocs.end()) {
          alloc = journaled->second;
        } else {
          auto waited = wait_for_plan(c, b0);
          if (!waited.is_ok()) return waited.status();
          if (waited.value().kind == PlanEvent::Kind::kStop) {
            stop_at = waited.value().stop_at;
            effective = std::min<u64>(effective, *stop_at);
            break;
          }
          alloc = waited.value();
        }
      }

      // This shard's slots inside the block.
      std::vector<std::size_t> block_slots;
      const u64 delta = (config.shard_index + config.shard_count -
                         b0 % config.shard_count) % config.shard_count;
      for (u64 i = b0 + delta; i < b1; i += config.shard_count) {
        block_slots.push_back(static_cast<std::size_t>(
            (i - config.shard_index) / config.shard_count));
      }

      // Journal the allocation before its block's records (not on resume if
      // already present, and not when the shard owns none of the block).
      if (alloc && writer && !block_slots.empty() &&
          journaled == journaled_allocs.end()) {
        Status appended = writer->append_plan(*alloc);
        if (!appended.is_ok()) return appended;
      }
      if (alloc) allocs_used.push_back(*alloc);

      run_slots(make_chunks(block_slots), alloc, b0);
      for (const std::size_t slot : block_slots) {
        if (!errors[slot].is_ok()) return errors[slot];
      }
      // The block's records are journaled and flushed: the supervisor may
      // now find it complete and publish the next decision.
      if (wake_fd >= 0) wake::send(wake_fd);

      if (decide) {
        // Feed the planner the completed prefix in global index order
        // (unsharded, so block_slots IS [b0, b1) in order).
        for (const std::size_t slot : block_slots) {
          planner.observe(result.records[slot]);
        }
        if (config.planner.stopping() && b1 < config.num_injections) {
          if (planner.stop_satisfied()) {
            if (journaled_stop && *journaled_stop != b1) {
              return Status::failed_precondition(
                  "journaled stop at " + std::to_string(*journaled_stop) +
                  " is not reproduced by this run (the stopping rule fired "
                  "at " + std::to_string(b1) + ")");
            }
            if (writer && !journaled_stop) {
              PlanEvent stop;
              stop.kind = PlanEvent::Kind::kStop;
              stop.stop_at = b1;
              Status appended = writer->append_plan(stop);
              if (!appended.is_ok()) return appended;
            }
            stop_at = b1;
            effective = b1;
            break;
          }
          if (journaled_stop && *journaled_stop == b1) {
            return Status::failed_precondition(
                "journaled stop at " + std::to_string(b1) +
                " is not reproduced by this run (the stopping rule did not "
                "fire there)");
          }
        }
      } else {
        // Opportunistic stop check: stop-only workers never block on the
        // plan file, so they may overshoot the boundary by however many
        // blocks they complete before noticing — the merge drops the
        // overshoot deterministically.
        if (plan->poll().is_ok() && plan->contents().stop_at) {
          stop_at = plan->contents().stop_at;
          effective = std::min<u64>(effective, *stop_at);
        }
      }
    }

    // Truncate to the effective boundary: blocks beyond it never ran, but a
    // resumed journal may have restored records past a stop published after
    // this shard had raced ahead.
    std::size_t keep = result.run_indices.size();
    while (keep > 0 && result.run_indices[keep - 1] >= effective) --keep;
    for (std::size_t s = keep; s < result.run_indices.size(); ++s) {
      if (done[s]) --result.resumed;
    }
    result.run_indices.resize(keep);
    result.records.resize(keep);
    pruned_flags.resize(keep);

    result.effective_injections = effective;
    result.plan = std::move(allocs_used);
    if (stop_at) {
      PlanEvent stop;
      stop.kind = PlanEvent::Kind::kStop;
      stop.stop_at = *stop_at;
      result.plan.push_back(stop);
    }
    reg.gauge("campaign.planner.effective_injections")
        .set(static_cast<f64>(effective));
    if (stop_at) {
      reg.gauge("campaign.planner.stopped_at").set(static_cast<f64>(*stop_at));
    }
  }

  for (const Status& status : errors) {
    if (!status.is_ok()) return status;
  }
  for (u8 flag : pruned_flags) result.pruned += flag;

  for (const InjectionRecord& record : result.records) {
    ++result.outcome_counts[static_cast<int>(record.outcome)];
  }
  if (heartbeat) heartbeat->finish();
  return result;
}

}  // namespace gfi::fi
