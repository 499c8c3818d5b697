// Golden-fork equivalence. A launch paused at a cycle boundary, copied
// (LaunchState plus GlobalMemory) and finished on another device must equal
// the uninterrupted launch in every observable, and an injection resumed
// from such a copy must strike and end exactly as one launched from the
// start. At campaign level, records whose injections fork from shared
// golden sweeps must equal, byte for byte, the records a loop of unforked
// launches writes: a fresh Device and a fresh InjectorHook per index,
// launched from the start, the way perfbench's decomposed replay does it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "fi/campaign.h"
#include "fi/injector.h"
#include "fi/journal.h"
#include "harden/swift.h"
#include "recover/abft.h"
#include "sassim/device.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

namespace fs = std::filesystem;
using fi::BitFlipModel;
using fi::Campaign;
using fi::CampaignConfig;
using fi::InjectionMode;
using fi::InjectionRecord;
using fi::Outcome;
using sim::Device;
using sim::LaunchOptions;
using sim::LaunchResult;
using sim::LaunchState;
using sim::PauseQueues;

bool same_result(const LaunchResult& a, const LaunchResult& b) {
  return a.trap.kind == b.trap.kind && a.trap.pc == b.trap.pc &&
         a.trap.cta == b.trap.cta && a.trap.warp == b.trap.warp &&
         a.trap.address == b.trap.address &&
         a.dyn_warp_instrs == b.dyn_warp_instrs &&
         a.dyn_thread_instrs == b.dyn_thread_instrs &&
         a.cycles == b.cycles &&
         a.ecc.corrected_sbe == b.ecc.corrected_sbe &&
         a.ecc.detected_dbe == b.ecc.detected_dbe &&
         a.ecc.silent_corrupted == b.ecc.silent_corrupted;
}

bool same_memory(Device& a, Device& b) {
  const sim::GlobalMemory::Snapshot x = a.snapshot();
  const sim::GlobalMemory::Snapshot y = b.snapshot();
  return x.brk == y.brk && x.data == y.data && x.faults == y.faults;
}

/// A workload set up on a golden device, its launch spec, and the
/// uninterrupted fault-free launch on a copy of that device.
struct Golden {
  std::unique_ptr<wl::Workload> workload;
  std::unique_ptr<Device> device;
  wl::LaunchSpec spec;
  std::unique_ptr<Device> whole;
  LaunchResult want;
  sim::Profile profile;  ///< of the uninterrupted launch

  Golden(const std::string& name, const sim::MachineConfig& machine)
      : workload(wl::make_workload(name)),
        device(std::make_unique<Device>(machine)),
        whole(std::make_unique<Device>(machine)) {
    EXPECT_NE(workload, nullptr) << name;
    auto set = workload->setup(*device);
    EXPECT_TRUE(set.is_ok()) << set.status().to_string();
    spec = set.value();
    whole->memory() = device->memory();
    LaunchOptions options;
    options.profile = &profile;
    auto ran = whole->launch(workload->program(), spec.grid, spec.block,
                             spec.params, options);
    EXPECT_TRUE(ran.is_ok()) << ran.status().to_string();
    want = ran.value();
  }

  Result<LaunchResult> run(Device& on, LaunchState& state,
                           const LaunchOptions& options = {}) {
    return on.run(state, workload->program(), spec.grid, spec.block,
                  spec.params, options);
  }
};

/// Sweeps `name` forward, pausing on the dynamic-index queue at about
/// `pauses` evenly strided boundaries (every boundary when the launch is
/// shorter), and finishes a copy at each: every copy must end as the
/// uninterrupted launch did, and so must the sweep itself.
void expect_copies_finish_alike(const std::string& name,
                                const sim::MachineConfig& machine,
                                u64 pauses) {
  SCOPED_TRACE(name + " on " + machine.name);
  Golden g(name, machine);
  ASSERT_TRUE(g.want.ok());
  const u64 stride = std::max<u64>(1, g.want.dyn_warp_instrs / pauses);
  const u64 reach = static_cast<u64>(machine.num_sms) * machine.issue_width;
  PauseQueues pause;
  LaunchOptions options;
  options.pause = &pause;
  LaunchState state;
  Device fork(machine);
  u64 forks = 0;
  std::optional<u64> last;
  u64 head = 0;
  while (true) {
    pause.head[PauseQueues::kDynQueue] = head;
    auto ran = g.run(*g.device, state, options);
    ASSERT_TRUE(ran.is_ok()) << ran.status().to_string();
    if (!ran.value().paused) {
      EXPECT_TRUE(same_result(ran.value(), g.want));
      EXPECT_TRUE(same_memory(*g.device, *g.whole));
      break;
    }
    // Paused before the head issued, within one cycle's reach of it.
    ASSERT_EQ(pause.due, 1u << PauseQueues::kDynQueue);
    ASSERT_LE(state.dyn_warp, head);
    ASSERT_LT(head - state.dyn_warp, reach);
    if (last != state.dyn_warp) {
      last = state.dyn_warp;
      fork.memory() = g.device->memory();
      LaunchState copy = state;
      auto finished = g.run(fork, copy);
      ASSERT_TRUE(finished.is_ok()) << finished.status().to_string();
      EXPECT_TRUE(same_result(finished.value(), g.want))
          << "copy paused at dyn " << state.dyn_warp;
      EXPECT_TRUE(same_memory(fork, *g.whole))
          << "copy paused at dyn " << state.dyn_warp;
      ++forks;
    }
    head += stride;
  }
  EXPECT_GE(forks, 10u);
}

TEST(Fork, PausedCopiesFinishLikeTheUninterruptedLaunch) {
  // Small kernels on the toy machine, at every boundary of the short ones:
  // guards, divergence, loops, barriers, shared memory and atomics.
  for (const char* name : {"vecadd", "scan", "reduce_u32", "histogram",
                           "bitonic_sort", "spmv", "stencil"}) {
    expect_copies_finish_alike(name, arch::toy(), 150);
  }
  // Multi-SM machines, strided.
  for (const auto& machine : {arch::a100(), arch::h100()}) {
    for (const char* name : {"vecadd", "scan", "histogram", "gemm"}) {
      expect_copies_finish_alike(name, machine, 40);
    }
  }
}

TEST(Fork, GroupQueuesPauseBeforeTheirOccurrence) {
  Golden g("spmv", arch::a100());
  const sim::Profile& profile = g.profile;
  // Two groups at once: the sweep pauses for whichever head comes first
  // and reports exactly the queues within reach.
  const int load = static_cast<int>(sim::InstrGroup::kLoad);
  const int mad = static_cast<int>(sim::InstrGroup::kIntMad);
  ASSERT_GT(profile.warp_instrs_by_group[load], 4u);
  ASSERT_GT(profile.warp_instrs_by_group[mad], 4u);
  const u64 reach = static_cast<u64>(arch::a100().num_sms) *
                    arch::a100().issue_width;
  std::vector<u64> loads = {0, profile.warp_instrs_by_group[load] / 2,
                            profile.warp_instrs_by_group[load] - 1};
  std::vector<u64> mads = {profile.warp_instrs_by_group[mad] / 3,
                           profile.warp_instrs_by_group[mad] - 1};
  PauseQueues pause;
  LaunchOptions options;
  options.pause = &pause;
  LaunchState state;
  std::size_t next_load = 0;
  std::size_t next_mad = 0;
  while (next_load < loads.size() || next_mad < mads.size()) {
    pause.head[load] =
        next_load < loads.size() ? loads[next_load] : PauseQueues::kEmpty;
    pause.head[mad] =
        next_mad < mads.size() ? mads[next_mad] : PauseQueues::kEmpty;
    auto ran = g.run(*g.device, state, options);
    ASSERT_TRUE(ran.is_ok());
    ASSERT_TRUE(ran.value().paused);
    ASSERT_NE(pause.due, 0u);
    if ((pause.due >> load) & 1u) {
      EXPECT_LE(state.issued[load], loads[next_load]);
      EXPECT_LT(loads[next_load] - state.issued[load], reach);
      ++next_load;
    }
    if ((pause.due >> mad) & 1u) {
      EXPECT_LE(state.issued[mad], mads[next_mad]);
      EXPECT_LT(mads[next_mad] - state.issued[mad], reach);
      ++next_mad;
    }
  }
  // The per-group issue counters sum to the dynamic count.
  u64 total = 0;
  for (u64 n : state.issued) total += n;
  EXPECT_EQ(total, state.dyn_warp);
}

TEST(Fork, SweepPausesBeforeItsWatchdogInsteadOfTripping) {
  Golden g("gemm", arch::toy());
  const u64 budget = g.want.dyn_warp_instrs / 3;
  PauseQueues pause;
  LaunchOptions options;
  options.pause = &pause;
  options.watchdog_instrs = budget;
  LaunchState state;
  auto ran = g.run(*g.device, state, options);
  ASSERT_TRUE(ran.is_ok());
  EXPECT_TRUE(ran.value().paused);
  EXPECT_FALSE(ran.value().trap.fired());
  EXPECT_EQ(pause.due, 0u);
  EXPECT_LT(state.dyn_warp, budget);
  // A copy resumed under the same watchdog trips it exactly where the
  // whole launch under that watchdog does.
  Device whole(arch::toy());
  Device fork(arch::toy());
  Golden start("gemm", arch::toy());
  whole.memory() = start.device->memory();
  LaunchOptions limited;
  limited.watchdog_instrs = budget;
  auto want = whole.launch(g.workload->program(), g.spec.grid, g.spec.block,
                           g.spec.params, limited);
  ASSERT_TRUE(want.is_ok());
  ASSERT_EQ(want.value().trap.kind, sim::TrapKind::kWatchdogTimeout);
  fork.memory() = g.device->memory();
  LaunchState copy = state;
  auto got = g.run(fork, copy, limited);
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(same_result(got.value(), want.value()));
  EXPECT_TRUE(same_memory(fork, whole));
}

TEST(Fork, ResumedTriggerCountsFromTheStateAndRefusesAPassedOne) {
  Golden g("vecadd", arch::a100());
  fi::FaultSite site;
  site.model = {InjectionMode::kIov, BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kFp32;
  site.lane_sel = 5;
  site.bit_sel = 30;
  const int group = static_cast<int>(*site.group);
  // Paused far into the launch, a trigger behind the state is an error.
  ASSERT_GT(g.profile.warp_instrs_by_group[group], 2u);
  PauseQueues pause;
  pause.head[group] = g.profile.warp_instrs_by_group[group] / 2;
  LaunchOptions sweep;
  sweep.pause = &pause;
  LaunchState state;
  ASSERT_TRUE(g.run(*g.device, state, sweep).value().paused);
  ASSERT_GT(state.issued[group], 0u);
  site.target_occurrence = state.issued[group] - 1;
  fi::InjectorHook passed(site, arch::a100());
  LaunchOptions hooked;
  hooked.hooks.push_back(&passed);
  Device fork(arch::a100());
  fork.memory() = g.device->memory();
  LaunchState copy = state;
  auto refused = g.run(fork, copy, hooked);
  EXPECT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  // A paused sweep cannot carry hooks.
  LaunchState fresh;
  sweep.hooks.push_back(&passed);
  EXPECT_EQ(g.run(fork, fresh, sweep).status().code(),
            StatusCode::kInvalidArgument);
}

/// Every occurrence of `group` struck from a fork of one sweep (each at the
/// pause before it) equals the same strike launched from the start.
void expect_forked_strikes_alike(const std::string& name,
                                 const sim::MachineConfig& machine,
                                 const fi::FaultSite& base, u64 count) {
  SCOPED_TRACE(name + " on " + machine.name + " " + base.to_string());
  Golden g(name, machine);
  count = std::min(count, base.group ? g.profile.group_warp_count(*base.group)
                                     : g.want.dyn_warp_instrs);
  ASSERT_GT(count, 1u);
  const std::size_t queue = base.model.mode == InjectionMode::kRf
                                ? PauseQueues::kDynQueue
                                : static_cast<std::size_t>(*base.group);
  PauseQueues pause;
  LaunchOptions sweep;
  sweep.pause = &pause;
  LaunchState state;
  Device start(machine);
  start.memory() = g.device->memory();
  const sim::GlobalMemory::Snapshot pristine = start.snapshot();
  Device unforked(machine);
  Device fork(machine);
  for (u64 occurrence = 0; occurrence < count; ++occurrence) {
    fi::FaultSite site = base;
    site.target_occurrence = occurrence;
    site.lane_sel = static_cast<u32>(occurrence * 7 + 3);
    site.bit_sel = static_cast<u32>(occurrence * 13 + 1);
    pause.head[queue] = occurrence;
    auto paused = g.run(*g.device, state, sweep);
    ASSERT_TRUE(paused.is_ok());
    ASSERT_TRUE(paused.value().paused);

    fi::InjectorHook a(site, machine);
    LaunchOptions from_start;
    from_start.hooks.push_back(&a);
    unforked.restore(pristine);
    auto want = unforked.launch(g.workload->program(), g.spec.grid,
                                g.spec.block, g.spec.params, from_start);
    fi::InjectorHook b(site, machine);
    LaunchOptions resumed;
    resumed.hooks.push_back(&b);
    fork.memory() = g.device->memory();
    LaunchState copy = state;
    auto got = g.run(fork, copy, resumed);
    ASSERT_TRUE(want.is_ok());
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_TRUE(same_result(got.value(), want.value()))
        << "occurrence " << occurrence;
    EXPECT_TRUE(same_memory(fork, unforked)) << "occurrence " << occurrence;
    const fi::InjectionEffect& x = a.effect();
    const fi::InjectionEffect& y = b.effect();
    EXPECT_EQ(x.activated, y.activated);
    EXPECT_EQ(x.struck_dyn_index, y.struck_dyn_index);
    EXPECT_EQ(x.struck_lane, y.struck_lane);
    EXPECT_EQ(x.struck_opcode, y.struck_opcode);
  }
}

TEST(Fork, EveryOccurrenceStruckFromASweepMatchesALaunchFromTheStart) {
  // Occurrence 0, the last one, and neighbours that share a cycle (and so
  // a pause): IOV, IOA, PRED and RF, whose queue is the dynamic index.
  fi::FaultSite site;
  site.model = {InjectionMode::kIov, BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kFp32;
  expect_forked_strikes_alike("vecadd", arch::toy(), site, 64);
  site.model.mode = InjectionMode::kIoa;
  site.group = sim::InstrGroup::kStore;
  expect_forked_strikes_alike("scan", arch::a100(), site, 32);
  site.model.mode = InjectionMode::kPred;
  site.group = sim::InstrGroup::kSetp;
  expect_forked_strikes_alike("reduce_u32", arch::h100(), site, 48);
  site.model = {InjectionMode::kRf, BitFlipModel::kDouble};
  site.group.reset();
  expect_forked_strikes_alike("histogram", arch::toy(), site, 200);
}

// ------------------------------------------------------ campaign level ---

/// One injection replayed unforked: a fresh Device set up from scratch, a
/// fresh InjectorHook launched from the start, the check, and retries that
/// restore a pre-launch snapshot. Classified the way a campaign classifies.
InjectionRecord unforked_record(const CampaignConfig& config, u64 golden_dyn,
                                const fi::FaultSite& site) {
  auto workload = wl::make_workload(config.workload);
  Device device(config.machine);
  auto spec = workload->setup(device);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  const sim::GlobalMemory::Snapshot checkpoint = device.snapshot();
  const u64 watchdog =
      config.watchdog_instrs
          ? *config.watchdog_instrs
          : golden_dyn * config.watchdog_multiplier + config.watchdog_floor;
  const bool stuck = config.model.persistence == fi::FaultPersistence::kStuckAt;

  InjectionRecord record;
  record.site = site;
  record.attempts = 0;
  sim::Trap first;
  sim::Trap last;
  wl::CheckResult result;  // of the final attempt, when it was checked
  bool checked = false;
  bool not_activated = false;
  for (u32 attempt = 0;; ++attempt) {
    if (attempt > 0) device.restore(checkpoint);
    ++record.attempts;
    fi::InjectorHook injector(site, config.machine);
    LaunchOptions options;
    options.watchdog_instrs = watchdog;
    if (attempt == 0 || stuck) options.hooks.push_back(&injector);
    auto launch = device.launch(workload->program(), spec.value().grid,
                                spec.value().block, spec.value().params,
                                options);
    EXPECT_TRUE(launch.is_ok()) << launch.status().to_string();
    record.dyn_instrs += launch.value().dyn_warp_instrs;
    if (attempt == 0) record.effect = injector.effect();
    sim::Trap trap = launch.value().trap;
    checked = false;
    if (!trap.fired()) {
      if (attempt == 0 && !record.effect.activated) {
        not_activated = true;
      } else {
        auto c = workload->check(device);
        EXPECT_TRUE(c.is_ok());
        result = c.value().result;
        checked = true;
        if (c.value().trap != sim::TrapKind::kNone) trap.kind = c.value().trap;
      }
    }
    if (attempt == 0) first = trap;
    last = trap;
    if (!trap.fired() || attempt >= config.max_retries) break;
  }
  if (last.fired()) {
    record.trap = last.kind;
    record.pre_recovery = fi::outcome_for_trap(first.kind);
    record.outcome = config.max_retries == 0 ? record.pre_recovery
                                             : Outcome::kUnrecoverableDue;
    return record;
  }
  if (not_activated) {
    record.outcome = record.pre_recovery = Outcome::kNotActivated;
    return record;
  }
  EXPECT_TRUE(checked);
  record.error_magnitude = result.max_rel_err;
  if (first.fired()) {
    record.trap = first.kind;
    record.pre_recovery = fi::outcome_for_trap(first.kind);
    record.outcome =
        result.passed() ? Outcome::kRecoveredRetry : Outcome::kSdc;
    return record;
  }
  if (record.effect.corrected_by_ecc) {
    record.outcome = Outcome::kDetectedCorrected;
  } else if (result.bitwise_equal) {
    record.outcome = Outcome::kMasked;
  } else if (result.within_tolerance) {
    record.outcome = Outcome::kMaskedTolerated;
  } else {
    record.outcome = Outcome::kSdc;
  }
  record.pre_recovery = record.outcome;
  return record;
}

/// Runs `config` at --threads=1 and 3 and expects both to equal the
/// unforked loop over the records' sites, byte for byte as journal lines.
/// Returns the single-threaded result (nullopt when the workload has no
/// site the mode can strike).
std::optional<fi::CampaignResult> expect_campaign_matches_unforked(
    CampaignConfig config) {
  std::optional<fi::CampaignResult> first;
  std::vector<std::string> want;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    config.threads = threads;
    auto ran = Campaign::run(config);
    if (!ran.is_ok()) {
      EXPECT_EQ(ran.status().code(), StatusCode::kInvalidArgument)
          << ran.status().to_string();
      return std::nullopt;
    }
    const fi::CampaignResult& got = ran.value();
    for (std::size_t k = 0; k < got.records.size(); ++k) {
      const u64 i = got.run_indices[k];
      if (!first) {
        want.push_back(fi::Journal::record_line(
            i, unforked_record(config, got.golden_dyn_instrs,
                               got.records[k].site)));
      }
      EXPECT_EQ(fi::Journal::record_line(i, got.records[k]), want.at(k))
          << "threads " << threads;
    }
    if (!first) first = ran.value();
  }
  return first;
}

CampaignConfig fork_config(const std::string& workload,
                           const sim::MachineConfig& machine,
                           InjectionMode mode) {
  CampaignConfig config;
  config.workload = workload;
  config.machine = machine;
  config.model = {mode, BitFlipModel::kSingle};
  config.num_injections = 24;
  config.seed = 2025;
  return config;
}

void expect_every_mode_matches_unforked(const std::string& workload) {
  for (const auto& machine : {arch::a100(), arch::h100()}) {
    for (const InjectionMode mode : {InjectionMode::kIov, InjectionMode::kIoa,
                                     InjectionMode::kPred,
                                     InjectionMode::kRf}) {
      SCOPED_TRACE(workload + " " + machine.name + " " + fi::to_string(mode));
      expect_campaign_matches_unforked(fork_config(workload, machine, mode));
    }
  }
}

/// Each built-in kernel, and its SWIFT-hardened variant.
class ForkCampaign : public ::testing::TestWithParam<std::string> {};

TEST_P(ForkCampaign, RecordsEqualAnUnforkedLoop) {
  harden::register_hardened_workloads();
  expect_every_mode_matches_unforked(GetParam());
  if (wl::make_workload(GetParam() + "_swift") != nullptr) {
    expect_every_mode_matches_unforked(GetParam() + "_swift");
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ForkCampaign,
                         ::testing::ValuesIn(wl::workload_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(ForkCampaignEdges, AbftKernelsMatchTheUnforkedLoop) {
  recover::register_abft_workloads();
  for (const char* name : {"gemm_abft", "reduce_abft", "spmv_abft"}) {
    ASSERT_NE(wl::make_workload(name), nullptr) << name;
    expect_every_mode_matches_unforked(name);
  }
}

TEST(ForkCampaignEdges, FewOccurrencesCoverTheFirstTheLastAndSharedPauses) {
  // histogram issues few stores: 64 IOA injections pinned to them strike
  // occurrence 0, the last occurrence, and the same occurrence from several
  // slots of one chunk (two strikes at one pause).
  auto config = fork_config("histogram", arch::a100(), InjectionMode::kIoa);
  config.group = sim::InstrGroup::kStore;
  config.num_injections = 64;
  auto got = expect_campaign_matches_unforked(config);
  ASSERT_TRUE(got.has_value());
  const u64 count = got->profile.group_warp_count(sim::InstrGroup::kStore);
  ASSERT_LT(count, 16u);
  std::map<u64, u64> hits;
  for (const InjectionRecord& r : got->records) {
    ++hits[r.site.target_occurrence];
  }
  EXPECT_TRUE(hits.contains(0));
  EXPECT_TRUE(hits.contains(count - 1));
  EXPECT_GT(std::max_element(hits.begin(), hits.end(),
                             [](const auto& a, const auto& b) {
                               return a.second < b.second;
                             })
                ->second,
            1u);
}

TEST(ForkCampaignEdges, HangsAndTrapsEndWhereUnforkedOnesDo) {
  // A watchdog well inside the golden launch: strikes past it never land
  // (the sweep pauses before the watchdog and they fork there), strikes
  // before it may trap or hang. IOA on stores traps on wild addresses.
  auto config = fork_config("gemm", arch::a100(), InjectionMode::kIov);
  auto golden = Campaign::golden_run(config);
  ASSERT_TRUE(golden.is_ok());
  config.watchdog_instrs = golden.value().dyn_instrs / 2;
  config.num_injections = 40;
  auto hung = expect_campaign_matches_unforked(config);
  ASSERT_TRUE(hung.has_value());
  EXPECT_GT(hung->count(Outcome::kHang), 0u);
  EXPECT_LT(hung->count(Outcome::kHang), config.num_injections);

  config = fork_config("scan", arch::h100(), InjectionMode::kIoa);
  config.num_injections = 40;
  auto trapped = expect_campaign_matches_unforked(config);
  ASSERT_TRUE(trapped.has_value());
  EXPECT_GT(trapped->count(Outcome::kDue), 0u);
}

TEST(ForkCampaignEdges, StuckAtRetriesRestartFromThePreLaunchCheckpoint) {
  for (const auto persistence :
       {fi::FaultPersistence::kStuckAt, fi::FaultPersistence::kTransient}) {
    auto config = fork_config("scan", arch::a100(), InjectionMode::kIoa);
    config.model.persistence = persistence;
    config.max_retries = 2;
    config.num_injections = 40;
    auto got = expect_campaign_matches_unforked(config);
    ASSERT_TRUE(got.has_value());
    u64 retried = 0;
    for (const InjectionRecord& r : got->records) retried += r.attempts > 1;
    EXPECT_GT(retried, 0u);
  }
}

TEST(ForkCampaignEdges, MostlyCreditedChunksMatchTheUnprunedLoop) {
  // Dead-bit pruning credits most slots of a chunk; the sweep serves only
  // the few left, and every record equals the simulated one.
  harden::register_hardened_workloads();
  auto config = fork_config("mc_pi_swift", arch::a100(), InjectionMode::kIov);
  config.prune_dead_sites = config.prune_dead_bits = true;
  config.num_injections = 64;
  auto got = expect_campaign_matches_unforked(config);
  ASSERT_TRUE(got.has_value());
  EXPECT_GT(got->pruned, config.num_injections / 3);
  EXPECT_LT(got->pruned, config.num_injections);
}

TEST(ForkCampaignEdges, SingleThreadJournalIsInIndexOrder) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "gfi_fork_journal_order";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto config = fork_config("gemm", arch::a100(), InjectionMode::kIov);
  config.num_injections = 70;
  config.threads = 1;
  config.journal_path = (dir / "c.jsonl").string();
  config.heartbeat_interval_ms = 0;
  auto ran = Campaign::run(config);
  ASSERT_TRUE(ran.is_ok()) << ran.status().to_string();
  std::ifstream in(*config.journal_path);
  std::string line;
  std::vector<std::string> records;
  while (std::getline(in, line)) {
    if (line.find("\"i\":") != std::string::npos) records.push_back(line);
  }
  ASSERT_EQ(records.size(), config.num_injections);
  for (u64 i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i],
              fi::Journal::record_line(i, ran.value().records[i]));
  }
}

}  // namespace
}  // namespace gfi
