// Execution-path equivalence tests for the tiered engine: the clean tier
// must be bit-identical to the instrumented tier, concurrent launches must
// safely share one Program's decode cache, the drop to the clean tier after
// a strike must not perturb results, pending faults must route the clean
// tier onto the checked paths, the native strike trigger must reproduce the
// pinned instrumented tier for every injection mode, every site
// --prune=dead credits on mc_pi_swift must simulate to the credited record,
// and the hook contract (invocation order, launch_end on every exit path,
// trigger delivery) is pinned here.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fi/campaign.h"
#include "fi/fault_model.h"
#include "fi/injector.h"
#include "harden/swift.h"
#include "oracle_hooks.h"
#include "sa/ace.h"
#include "sassim/defuse.h"
#include "sassim/tracer.h"
#include "sim_test_util.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

using sim::Device;
using gfi::Dim3;
using sim::KernelBuilder;
using sim::LaunchOptions;
using sim::LaunchResult;
using sim::Operand;
using sim::TrapKind;
using sim_test::must;

/// Everything a launch can externally produce, for bit-exact comparison,
/// plus the workload's output check when the launch did not trap.
struct RunOutput {
  LaunchResult result;
  sim::GlobalMemory::Snapshot memory;
  std::optional<wl::Workload::Checked> checked;
};

bool same_regs(const sim::RegList& a, const sim::RegList& b) {
  if (a.count != b.count) return false;
  for (int i = 0; i < a.count; ++i) {
    if (a.regs[i] != b.regs[i]) return false;
  }
  return true;
}

bool identical(const RunOutput& a, const RunOutput& b) {
  return a.result.trap.kind == b.result.trap.kind &&
         a.result.trap.pc == b.result.trap.pc &&
         a.result.dyn_warp_instrs == b.result.dyn_warp_instrs &&
         a.result.dyn_thread_instrs == b.result.dyn_thread_instrs &&
         a.result.cycles == b.result.cycles &&
         a.result.ecc.corrected_sbe == b.result.ecc.corrected_sbe &&
         a.result.ecc.detected_dbe == b.result.ecc.detected_dbe &&
         a.result.ecc.silent_corrupted == b.result.ecc.silent_corrupted &&
         a.memory.brk == b.memory.brk && a.memory.data == b.memory.data;
}

/// Runs `workload_name` on a fresh device and returns the full output.
RunOutput run_workload(const std::string& workload_name,
                       const sim::Program* shared_program,
                       const LaunchOptions& options,
                       const sim::MachineConfig& machine = arch::toy()) {
  auto workload = wl::make_workload(workload_name);
  EXPECT_NE(workload, nullptr) << workload_name;
  Device device(machine);
  auto spec = workload->setup(device);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  const sim::Program& program =
      shared_program ? *shared_program : workload->program();
  auto launch = device.launch(program, spec.value().grid, spec.value().block,
                              spec.value().params, options);
  EXPECT_TRUE(launch.is_ok()) << launch.status().to_string();
  RunOutput out{launch.value(), device.snapshot(), std::nullopt};
  if (!out.result.trap.fired()) {
    auto checked = workload->check(device);
    EXPECT_TRUE(checked.is_ok()) << checked.status().to_string();
    out.checked = checked.value();
  }
  return out;
}

// Workloads with guards, divergence, loops, atomics, and FP — the shapes
// where the clean path's single guard-mask computation could diverge from
// the instrumented path's if either were wrong.
const char* const kPathWorkloads[] = {"vecadd", "scan", "reduce_u32", "spmv"};

TEST(ExecPaths, CleanMatchesForcedInstrumentedBitExact) {
  for (const char* name : kPathWorkloads) {
    LaunchOptions clean;
    LaunchOptions forced;
    forced.engine = sim::EngineTier::kInstrumented;
    const RunOutput a = run_workload(name, nullptr, clean);
    const RunOutput b = run_workload(name, nullptr, forced);
    EXPECT_TRUE(identical(a, b)) << name;
    EXPECT_EQ(a.result.instrumented_warp_instrs, 0u) << name;
    EXPECT_EQ(b.result.instrumented_warp_instrs, b.result.dyn_warp_instrs)
        << name;
  }
}

TEST(ExecPaths, AllTiersBitIdenticalOnEveryWorkload) {
  // The acceptance bar for the clean tier: every built-in workload
  // produces byte-identical memory and identical counters on clean and
  // instrumented execution.
  for (const std::string& name : wl::workload_names()) {
    LaunchOptions instrumented;
    instrumented.engine = sim::EngineTier::kInstrumented;
    const RunOutput reference = run_workload(name, nullptr, instrumented);
    const RunOutput out = run_workload(name, nullptr, LaunchOptions{});
    EXPECT_TRUE(identical(reference, out)) << name;
    EXPECT_EQ(out.result.instrumented_warp_instrs, 0u) << name;
    EXPECT_FALSE(out.result.downgraded) << name;
  }
}

TEST(ExecPaths, PendingFaultRoutesCleanTierOntoCheckedPaths) {
  // An injected (not yet consumed) fault disables the unchecked row copies:
  // the clean tier must take the fault-aware generic path and classify the
  // fault exactly like the instrumented tier, ECC counters included.
  auto workload = wl::make_workload("vecadd");
  ASSERT_NE(workload, nullptr);
  std::vector<RunOutput> outputs;
  for (const sim::EngineTier tier :
       {sim::EngineTier::kInstrumented, sim::EngineTier::kAuto}) {
    Device device(arch::toy());
    auto spec = workload->setup(device);
    ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
    device.memory().inject_fault(sim::GlobalMemory::kBaseAddress,
                                 /*flip_mask=*/1u << 3);
    LaunchOptions options;
    options.engine = tier;
    auto launch = device.launch(workload->program(), spec.value().grid,
                                spec.value().block, spec.value().params,
                                options);
    ASSERT_TRUE(launch.is_ok()) << launch.status().to_string();
    outputs.push_back(RunOutput{launch.value(), device.snapshot(), {}});
  }
  for (size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_TRUE(identical(outputs[0], outputs[i])) << "tier index " << i;
  }
}

/// A trigger at absolute dynamic index `occurrence` whose callbacks do
/// nothing: the launch's only observer finishes observing at that strike.
class InertTriggerHook final : public sim::InstrumentHook {
 public:
  explicit InertTriggerHook(u64 occurrence) : occurrence_(occurrence) {}
  [[nodiscard]] std::optional<sim::StrikeTrigger> trigger() const override {
    sim::StrikeTrigger t;
    t.occurrence = occurrence_;
    return t;
  }

 private:
  u64 occurrence_;
};

TEST(ExecPaths, EmptyHookVectorTakesSameResultsAsInstrumented) {
  // No hooks and hooks that have all finished must agree on every counter
  // the paper's experiments read, whichever tier the remainder runs on.
  for (const char* name : kPathWorkloads) {
    LaunchOptions clean;
    const RunOutput a = run_workload(name, nullptr, clean);

    InertTriggerHook first(/*occurrence=*/0);
    LaunchOptions downgrading;
    downgrading.hooks.push_back(&first);
    const RunOutput c = run_workload(name, nullptr, downgrading);
    EXPECT_TRUE(identical(a, c)) << name << " (downgrade after the strike)";
    // The strike is the one instrumented instruction; the rest runs clean
    // and the launch reports the drop.
    EXPECT_TRUE(c.result.downgraded) << name;
    EXPECT_EQ(c.result.instrumented_warp_instrs, 1u) << name;

    // Pinning kInstrumented ignores the trigger: instrumented throughout.
    InertTriggerHook pinned_hook(/*occurrence=*/0);
    LaunchOptions pinned;
    pinned.hooks.push_back(&pinned_hook);
    pinned.engine = sim::EngineTier::kInstrumented;
    const RunOutput e = run_workload(name, nullptr, pinned);
    EXPECT_TRUE(identical(a, e)) << name << " (pinned instrumented)";
    EXPECT_FALSE(e.result.downgraded) << name;
    EXPECT_EQ(e.result.instrumented_warp_instrs, e.result.dyn_warp_instrs)
        << name;
  }
}

TEST(ExecPaths, ConcurrentLaunchesShareOneDecodeCache) {
  // One *undecoded* Program shared by many threads: the first decode races,
  // exactly as concurrent campaign workers race on a workload's kernel.
  auto workload = wl::make_workload("scan");
  ASSERT_NE(workload, nullptr);
  const sim::Program shared = workload->program();  // copy: fresh cache

  LaunchOptions clean;
  const RunOutput reference = run_workload("scan", &shared, clean);

  constexpr int kThreads = 8;
  std::vector<RunOutput> outputs(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        LaunchOptions options;
        // Mix both tiers so the racing first decode serves every consumer.
        options.engine = t % 2 == 0 ? sim::EngineTier::kAuto
                                    : sim::EngineTier::kInstrumented;
        outputs[t] = run_workload("scan", &shared, options);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(identical(reference, outputs[t])) << "thread " << t;
  }
}

TEST(ExecPaths, NativeProfileMatchesProfilerHook) {
  // Profile-only launches must stay on the clean tier — and its per-opcode
  // counts must match ProfilerHook exactly.
  for (const std::string& name : wl::workload_names()) {
    sim::Profile native;
    LaunchOptions clean;
    clean.profile = &native;
    const RunOutput clean_run = run_workload(name, nullptr, clean);
    EXPECT_EQ(clean_run.result.instrumented_warp_instrs, 0u) << name;

    sim_test::ProfilerHook hook;
    LaunchOptions instrumented;
    instrumented.hooks.push_back(&hook);
    (void)run_workload(name, nullptr, instrumented);

    const sim::Profile& via_hook = hook.profile();
    EXPECT_EQ(native.total_warp_instrs, via_hook.total_warp_instrs) << name;
    EXPECT_EQ(native.total_thread_instrs, via_hook.total_thread_instrs)
        << name;
    EXPECT_EQ(native.warp_instrs_by_opcode, via_hook.warp_instrs_by_opcode)
        << name;
    EXPECT_EQ(native.warp_instrs_by_group, via_hook.warp_instrs_by_group)
        << name;
    EXPECT_EQ(native.thread_instrs_by_group, via_hook.thread_instrs_by_group)
        << name;
  }
}

/// Records the exact callback sequence, tagged with this hook's id, into a
/// log shared by all hooks of a launch.
class OrderRecordingHook final : public sim::InstrumentHook {
 public:
  OrderRecordingHook(std::vector<std::string>* log, std::string id)
      : log_(log), id_(std::move(id)) {}

  void on_launch_begin(const sim::Program&) override {
    log_->push_back(id_ + ":begin");
  }
  void on_launch_end() override { log_->push_back(id_ + ":end"); }
  void on_before_instr(sim::InstrContext& ctx) override {
    if (ctx.dyn_index < 2) log_->push_back(id_ + ":before");
  }
  void on_after_instr(sim::InstrContext& ctx) override {
    if (ctx.dyn_index < 2) log_->push_back(id_ + ":after");
  }

 private:
  std::vector<std::string>* log_;
  std::string id_;
};

TEST(ExecPaths, HookInvocationOrderIsPinned) {
  // Two hooks, first two dynamic instructions: begin in registration order,
  // then per instruction all on_before in order followed by all on_after in
  // order, and finally end in registration order.
  std::vector<std::string> log;
  OrderRecordingHook first(&log, "a");
  OrderRecordingHook second(&log, "b");
  LaunchOptions options;
  options.hooks.push_back(&first);
  options.hooks.push_back(&second);
  (void)sim_test::run_lane_kernel(
      [](KernelBuilder& b) { b.mov_u32(10, Operand::imm_u(7)); }, options);
  const std::vector<std::string> expected = {
      "a:begin", "b:begin",                        // launch start
      "a:before", "b:before", "a:after", "b:after",  // dyn 0
      "a:before", "b:before", "a:after", "b:after",  // dyn 1
      "a:end", "b:end",                            // launch end
  };
  EXPECT_EQ(log, expected);
}

/// Requests a trap on the first instruction it sees.
class TrapOnFirstHook final : public sim::InstrumentHook {
 public:
  void on_before_instr(sim::InstrContext& ctx) override {
    ctx.requested_trap = sim::TrapKind::kEccDoubleBit;
  }
};

TEST(ExecPaths, LaunchEndFiresOnTrapExit) {
  // The RAII launch scope must pair begin/end even when the launch aborts.
  std::vector<std::string> log;
  OrderRecordingHook recorder(&log, "r");
  TrapOnFirstHook trapper;
  LaunchOptions options;
  options.hooks.push_back(&recorder);
  options.hooks.push_back(&trapper);

  KernelBuilder b("trap_path");
  b.mov_u32(10, Operand::imm_u(1));
  b.exit_();
  auto program = must(b);
  Device device(arch::toy());
  auto launch = device.launch(program, Dim3(1), Dim3(32), {{0}}, options);
  ASSERT_TRUE(launch.is_ok());
  EXPECT_EQ(launch.value().trap.kind, TrapKind::kEccDoubleBit);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.front(), "r:begin");
  EXPECT_EQ(log.back(), "r:end");
  EXPECT_EQ(std::count(log.begin(), log.end(), "r:end"), 1);
}

// ------------------------------------------------------- strike trigger --

/// One injected launch: the run output plus what the injector reports.
struct InjectedOutput {
  RunOutput run;
  fi::InjectionEffect effect;
};

bool same_effect(const fi::InjectionEffect& a, const fi::InjectionEffect& b) {
  return a.activated == b.activated &&
         a.corrected_by_ecc == b.corrected_by_ecc &&
         a.struck_dyn_index == b.struck_dyn_index &&
         a.struck_opcode == b.struck_opcode &&
         a.struck_group == b.struck_group && a.struck_lane == b.struck_lane;
}

/// Runs `name` with an InjectorHook for `site` attached, plus `extra` hooks.
InjectedOutput run_injected(const std::string& name,
                            const sim::MachineConfig& machine,
                            const fi::FaultSite& site, sim::EngineTier engine,
                            u64 watchdog = 0,
                            std::vector<sim::InstrumentHook*> extra = {}) {
  fi::InjectorHook injector(site, machine);
  LaunchOptions options;
  options.engine = engine;
  options.watchdog_instrs = watchdog;
  options.hooks.push_back(&injector);
  options.hooks.insert(options.hooks.end(), extra.begin(), extra.end());
  RunOutput run = run_workload(name, nullptr, options, machine);
  return {run, injector.effect()};
}

/// Observes a whole launch and records, per opcode, its first dynamic
/// instance: group, occurrence among that group's dynamic instructions, and
/// dynamic index. Also counts dynamic instructions per group.
class SiteFinderHook final : public sim::InstrumentHook {
 public:
  struct Site {
    bool seen = false;
    sim::InstrGroup group = sim::InstrGroup::kControl;
    u64 occurrence = 0;
    u64 dyn_index = 0;
  };

  void on_before_instr(sim::InstrContext& ctx) override {
    const auto g = static_cast<std::size_t>(ctx.group);
    Site& site = first[static_cast<std::size_t>(ctx.instr->op)];
    if (!site.seen) site = {true, ctx.group, per_group[g], ctx.dyn_index};
    ++per_group[g];
  }

  std::array<Site, sim::kOpcodeCount> first{};
  std::array<u64, sim::kInstrGroupCount> per_group{};
};

TEST(ExecPaths, NativeTriggerMatchesPinnedInstrumented) {
  // For every workload and instruction-targeted mode: the first and last
  // eligible occurrence, one past the end, and the first dynamic instance
  // of every opcode the mode can strike. The default tier (trigger + clean
  // tail) must reproduce the pinned instrumented reference exactly.
  using fi::InjectionMode;
  std::set<sim::Opcode> covered;
  sim::MachineConfig machine = arch::toy();
  machine.rf_ecc = ecc::EccMode::kDisabled;  // RF flips corrupt
  sim::MachineConfig secded = arch::toy();
  secded.rf_ecc = ecc::EccMode::kSecded;

  auto check = [](const std::string& name, const sim::MachineConfig& config,
                  const fi::FaultSite& site, bool reached) {
    const InjectedOutput ref =
        run_injected(name, config, site, sim::EngineTier::kInstrumented);
    EXPECT_EQ(ref.run.result.instrumented_warp_instrs,
              ref.run.result.dyn_warp_instrs);
    const InjectedOutput out =
        run_injected(name, config, site, sim::EngineTier::kAuto);
    const std::string what = name + " " + site.to_string();
    EXPECT_TRUE(identical(ref.run, out.run)) << what;
    EXPECT_TRUE(same_effect(ref.effect, out.effect)) << what;
    EXPECT_EQ(out.run.result.instrumented_warp_instrs, reached ? 1u : 0u)
        << what;
    if (!reached) {
      EXPECT_FALSE(out.effect.activated) << what;
    }
  };

  for (const std::string& name : wl::workload_names()) {
    auto workload = wl::make_workload(name);
    ASSERT_NE(workload, nullptr) << name;
    SiteFinderHook finder;
    LaunchOptions observe;
    observe.hooks.push_back(&finder);
    const RunOutput golden =
        run_workload(name, &workload->program(), observe, machine);
    ASSERT_FALSE(golden.result.trap.fired()) << name;
    const u64 total = golden.result.dyn_warp_instrs;

    for (const InjectionMode mode :
         {InjectionMode::kIov, InjectionMode::kIoa, InjectionMode::kPred,
          InjectionMode::kRf}) {
      fi::FaultSite base;
      base.model = {mode, fi::BitFlipModel::kSingle};
      base.lane_sel = 13;
      base.bit_sel = 7;
      base.reg_sel = 5;
      u64 eligible = 0;
      for (int g = 0; g < sim::kInstrGroupCount; ++g) {
        if (fi::mode_targets_group(mode, static_cast<sim::InstrGroup>(g))) {
          eligible += finder.per_group[static_cast<std::size_t>(g)];
        }
      }
      std::vector<u64> occurrences = {0, eligible};
      if (eligible > 1) occurrences.push_back(eligible - 1);
      for (const u64 occurrence : occurrences) {
        fi::FaultSite site = base;
        site.target_occurrence = occurrence;
        check(name, machine, site, occurrence < eligible);
      }
      for (int op = 0; op < sim::kOpcodeCount; ++op) {
        const SiteFinderHook::Site& first =
            finder.first[static_cast<std::size_t>(op)];
        if (!first.seen) continue;
        fi::FaultSite site = base;
        if (mode == InjectionMode::kRf) {
          site.target_occurrence = first.dyn_index;
        } else if (fi::mode_targets_group(mode, first.group)) {
          site.group = first.group;
          site.target_occurrence = first.occurrence;
        } else {
          continue;
        }
        covered.insert(static_cast<sim::Opcode>(op));
        check(name, machine, site, true);
      }
    }

    // RF under SECDED: a single flip is corrected, a double flip requests
    // a trap from inside the struck instruction's on_before_instr.
    for (const fi::BitFlipModel flip :
         {fi::BitFlipModel::kSingle, fi::BitFlipModel::kDouble}) {
      fi::FaultSite site;
      site.model = {InjectionMode::kRf, flip};
      site.lane_sel = 3;
      site.bit_sel = 11;
      site.bit_sel2 = 12;
      site.target_occurrence = total / 2;
      check(name, secded, site, true);
      if (flip == fi::BitFlipModel::kDouble) {
        const InjectedOutput out =
            run_injected(name, secded, site, sim::EngineTier::kAuto);
        EXPECT_EQ(out.run.result.trap.kind, TrapKind::kEccDoubleBit) << name;
      }
    }
  }
  // A floor on the sweep's reach: a branch, a global load and store, and an
  // FP32 FMA must each have been struck at least once.
  for (const sim::Opcode op : {sim::Opcode::kBra, sim::Opcode::kLdg,
                               sim::Opcode::kStg, sim::Opcode::kFFma}) {
    EXPECT_TRUE(covered.count(op)) << "no site on " << sim::opcode_name(op);
  }
}

TEST(ExecPaths, InjectorWithObservingHookTakesInstrumentedPath) {
  // A profiler or tracer has no trigger, so the launch stays fully
  // instrumented: every instruction reaches every hook, and results still
  // match the injector-only reference.
  const sim::MachineConfig machine = arch::toy();
  fi::FaultSite site;
  site.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  site.target_occurrence = 500;
  site.bit_sel = 30;
  const InjectedOutput ref =
      run_injected("gemm", machine, site, sim::EngineTier::kInstrumented);
  ASSERT_TRUE(ref.effect.activated);

  sim_test::ProfilerHook profiler;
  const InjectedOutput profiled = run_injected(
      "gemm", machine, site, sim::EngineTier::kAuto, 0, {&profiler});
  sim::TracerHook tracer(/*max_entries=*/1);
  const InjectedOutput traced = run_injected(
      "gemm", machine, site, sim::EngineTier::kAuto, 0, {&tracer});
  for (const InjectedOutput* out : {&profiled, &traced}) {
    EXPECT_TRUE(identical(ref.run, out->run));
    EXPECT_TRUE(same_effect(ref.effect, out->effect));
    EXPECT_FALSE(out->run.result.downgraded);
    EXPECT_EQ(out->run.result.instrumented_warp_instrs,
              out->run.result.dyn_warp_instrs);
  }
  EXPECT_EQ(profiler.profile().total_warp_instrs,
            profiled.run.result.dyn_warp_instrs);
  EXPECT_EQ(tracer.seen(), traced.run.result.dyn_warp_instrs);
}

TEST(ExecPaths, WatchdogBeforeTriggerMatchesInstrumented) {
  // The watchdog fires in the counted prefix, before the strike: same trap,
  // same dynamic count, nothing instrumented, site never reached.
  const sim::MachineConfig machine = arch::toy();
  LaunchOptions plain;
  const u64 total =
      run_workload("gemm", nullptr, plain, machine).result.dyn_warp_instrs;
  fi::FaultSite site;
  site.model = {fi::InjectionMode::kRf, fi::BitFlipModel::kSingle};
  site.target_occurrence = total - 1;
  const u64 watchdog = total / 2;
  const InjectedOutput ref = run_injected(
      "gemm", machine, site, sim::EngineTier::kInstrumented, watchdog);
  const InjectedOutput out =
      run_injected("gemm", machine, site, sim::EngineTier::kAuto, watchdog);
  EXPECT_EQ(ref.run.result.trap.kind, TrapKind::kWatchdogTimeout);
  EXPECT_TRUE(identical(ref.run, out.run));
  EXPECT_TRUE(same_effect(ref.effect, out.effect));
  EXPECT_EQ(out.run.result.dyn_warp_instrs, watchdog);
  EXPECT_EQ(out.run.result.instrumented_warp_instrs, 0u);
  EXPECT_FALSE(out.effect.activated);
}

/// The record a simulated injection produces with recovery off: what
/// Campaign::run_single would journal for this launch.
fi::InjectionRecord simulated_record(const fi::FaultSite& site,
                                     const InjectedOutput& out) {
  fi::InjectionRecord record;
  record.site = site;
  record.effect = out.effect;
  record.dyn_instrs = out.run.result.dyn_warp_instrs;
  if (out.run.result.trap.fired()) {
    record.outcome =
        out.run.result.trap.kind == TrapKind::kWatchdogTimeout
            ? fi::Outcome::kHang
            : fi::Outcome::kDue;
  } else if (!out.effect.activated) {
    record.outcome = fi::Outcome::kNotActivated;
  } else if (out.run.checked->trap != TrapKind::kNone) {
    record.outcome = fi::Outcome::kDue;
  } else if (out.effect.corrected_by_ecc) {
    record.outcome = fi::Outcome::kDetectedCorrected;
  } else if (out.run.checked->result.bitwise_equal) {
    record.outcome = fi::Outcome::kMasked;
  } else {
    record.outcome = out.run.checked->result.within_tolerance
                         ? fi::Outcome::kMaskedTolerated
                         : fi::Outcome::kSdc;
  }
  return record;
}

/// Simulates every entry of `workload`'s prune map on `machine` that
/// --prune=dead credits, at its exact (group, occurrence) site (IOV for
/// register writers, PRED for predicate writers), and every partially dead
/// entry at its lowest and highest statically dead bit (what
/// --prune=dead-bits credits there). Each simulated record must equal the
/// one Campaign::credit_pruned writes, field by field. Returns how many
/// sites and how many partially dead entries were simulated.
std::pair<u64, u64> expect_credits_simulate(const std::string& workload,
                                            const char* arch_name,
                                            const sim::MachineConfig& machine) {
  fi::CampaignConfig config;
  config.workload = workload;
  config.machine = machine;
  auto map_or = fi::Campaign::build_prune_map(config);
  EXPECT_TRUE(map_or.is_ok()) << map_or.status().to_string();
  if (!map_or.is_ok()) return {0, 0};
  const sa::PruneMap& map = map_or.value();
  const u64 golden_dyn =
      run_workload(workload, nullptr, LaunchOptions{}, machine)
          .result.dyn_warp_instrs;

  u64 simulated = 0;
  u64 partial = 0;
  auto check = [&](const sa::PruneEntry& entry, sim::InstrGroup group,
                   u32 bit) {
    fi::FaultSite site;
    site.model = {fi::mode_targets_group(fi::InjectionMode::kIov, group)
                      ? fi::InjectionMode::kIov
                      : fi::InjectionMode::kPred,
                  fi::BitFlipModel::kSingle};
    site.group = group;
    site.target_occurrence = entry.occurrence;
    site.lane_sel = static_cast<u32>(entry.occurrence * 7 + 3);
    site.bit_sel = bit;
    fi::InjectionRecord credited;
    credited.site = site;
    fi::Campaign::credit_pruned(map, entry, golden_dyn, credited);
    const InjectedOutput out =
        run_injected(workload, machine, site, sim::EngineTier::kAuto,
                     /*watchdog=*/4 * golden_dyn);
    const fi::InjectionRecord got = simulated_record(site, out);
    const std::string what = workload + "/" + arch_name + " " +
                             site.to_string() + " pc " +
                             std::to_string(entry.pc);
    EXPECT_EQ(got.outcome, credited.outcome) << what;
    EXPECT_EQ(got.effect.activated, credited.effect.activated) << what;
    EXPECT_EQ(got.effect.struck_lane, credited.effect.struck_lane) << what;
    EXPECT_EQ(got.dyn_instrs, credited.dyn_instrs) << what;
    EXPECT_EQ(got.effect.struck_dyn_index, credited.effect.struck_dyn_index)
        << what;
    ++simulated;
  };
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    for (const sa::PruneEntry& entry : map.entries[g]) {
      if (entry.exec_mask == 0 || entry.cls != sa::SiteClass::kPartialDead) {
        check(entry, group, static_cast<u32>(entry.occurrence % 32));
        continue;
      }
      const u32 bits = map.analysis.strike_span(entry.pc) * 32u;
      std::optional<u32> lowest;
      std::optional<u32> highest;
      for (u32 bit = 0; bit < bits; ++bit) {
        if (!map.analysis.strike_bit_dead(entry.pc, bit)) continue;
        if (!lowest) lowest = bit;
        highest = bit;
      }
      EXPECT_TRUE(lowest.has_value()) << "partial site with no dead bit";
      if (!lowest) continue;
      check(entry, group, *lowest);
      if (*highest != *lowest) check(entry, group, *highest);
      ++partial;
    }
  }
  return {simulated, partial};
}

TEST(ExecPaths, McPiSwiftDeadSitesSimulateToTheirCreditedRecords) {
  // Record-by-record soundness of the analytic credits on mc_pi_swift, the
  // workload whose dead-site share is the largest in R-S1, on both paper
  // archs. mc_pi_swift has no partially dead site, so histogram (narrow
  // loads, partially dead registers) covers the dead-bit half.
  harden::register_hardened_workloads();
  const std::pair<const char*, sim::MachineConfig> archs[] = {
      {"a100", arch::a100()}, {"h100", arch::h100()}};
  for (const auto& [arch_name, machine] : archs) {
    const auto [simulated, partial] =
        expect_credits_simulate("mc_pi_swift", arch_name, machine);
    EXPECT_GT(simulated, 100u) << arch_name;
    EXPECT_EQ(partial, 0u) << arch_name;
  }
  const auto [simulated, partial] =
      expect_credits_simulate("histogram", "a100", arch::a100());
  EXPECT_GT(partial, 0u);
  EXPECT_GT(simulated, partial);
}

/// Declares a trigger at absolute dynamic index `occurrence` and logs every
/// callback it receives; optionally requests `trap` at its strike.
class TriggerLogHook final : public sim::InstrumentHook {
 public:
  TriggerLogHook(std::vector<std::string>* log, std::string id,
                 u64 occurrence, TrapKind trap = TrapKind::kNone)
      : log_(log), id_(std::move(id)), occurrence_(occurrence), trap_(trap) {}

  void on_launch_begin(const sim::Program&) override {
    log_->push_back(id_ + ":begin");
  }
  void on_launch_end() override { log_->push_back(id_ + ":end"); }
  [[nodiscard]] std::optional<sim::StrikeTrigger> trigger() const override {
    sim::StrikeTrigger t;
    t.occurrence = occurrence_;
    return t;
  }
  void on_trigger_reached() override { log_->push_back(id_ + ":reached"); }
  void on_before_instr(sim::InstrContext& ctx) override {
    log_->push_back(id_ + ":before@" + std::to_string(ctx.dyn_index));
    ctx.requested_trap = trap_;
  }
  void on_after_instr(sim::InstrContext& ctx) override {
    log_->push_back(id_ + ":after@" + std::to_string(ctx.dyn_index));
  }

 private:
  std::vector<std::string>* log_;
  std::string id_;
  u64 occurrence_;
  TrapKind trap_;
};

/// Six dynamic instructions on one warp: five MOVs and EXIT.
LaunchResult run_six(const std::vector<sim::InstrumentHook*>& hooks) {
  KernelBuilder b("six");
  for (int i = 0; i < 5; ++i) b.mov_u32(10, Operand::imm_u(1));
  b.exit_();
  auto program = must(b);
  Device device(arch::toy());
  LaunchOptions options;
  options.hooks = hooks;
  auto launch = device.launch(program, Dim3(1), Dim3(32), {{0}}, options);
  EXPECT_TRUE(launch.is_ok());
  return launch.value();
}

TEST(ExecPaths, TriggerDeliversOnlyTheStruckInstruction) {
  // Two triggered hooks: each gets its own struck instruction's callbacks
  // and nothing else, in registration order, inside one begin/end pair.
  std::vector<std::string> log;
  TriggerLogHook a(&log, "a", 1);
  TriggerLogHook b(&log, "b", 3);
  const LaunchResult result = run_six({&a, &b});
  EXPECT_FALSE(result.trap.fired());
  EXPECT_EQ(result.dyn_warp_instrs, 6u);
  EXPECT_EQ(result.instrumented_warp_instrs, 2u);
  const std::vector<std::string> expected = {
      "a:begin", "b:begin",                    // launch start
      "a:reached", "a:before@1", "a:after@1",  // a's strike
      "b:reached", "b:before@3", "b:after@3",  // b's strike
      "a:end", "b:end",                        // launch end
  };
  EXPECT_EQ(log, expected);
}

TEST(ExecPaths, TriggeredLaunchScopePairsBeginEndOnEveryExit) {
  // Struck instruction traps: begin and end still delivered exactly once.
  std::vector<std::string> log;
  TriggerLogHook trapper(&log, "t", 2, TrapKind::kEccDoubleBit);
  const LaunchResult trapped = run_six({&trapper});
  EXPECT_EQ(trapped.trap.kind, TrapKind::kEccDoubleBit);
  EXPECT_EQ(trapped.dyn_warp_instrs, 3u);
  EXPECT_EQ(trapped.instrumented_warp_instrs, 1u);
  EXPECT_FALSE(trapped.downgraded);
  const std::vector<std::string> expected_trap = {
      "t:begin", "t:reached", "t:before@2", "t:end"};
  EXPECT_EQ(log, expected_trap);

  // Trigger never reached: only begin and end, the launch runs hook-free.
  log.clear();
  TriggerLogHook never(&log, "n", 100);
  const LaunchResult unreached = run_six({&never});
  EXPECT_FALSE(unreached.trap.fired());
  EXPECT_EQ(unreached.instrumented_warp_instrs, 0u);
  EXPECT_FALSE(unreached.downgraded);
  const std::vector<std::string> expected_never = {"n:begin", "n:end"};
  EXPECT_EQ(log, expected_never);
}

TEST(ExecPaths, DecodedProgramAgreesWithInstructionStream) {
  auto workload = wl::make_workload("reduce_u32");
  ASSERT_NE(workload, nullptr);
  const sim::Program& program = workload->program();
  const sim::DecodedProgram& dec = program.decoded();
  ASSERT_EQ(dec.size(), program.size());
  // The cache is built once: repeated calls return the same object.
  EXPECT_EQ(&program.decoded(), &dec);
  for (u32 pc = 0; pc < program.size(); ++pc) {
    const sim::Instr& instr = program.at(pc);
    const sim::DecodedInstr& decoded = dec.at(pc);
    EXPECT_EQ(decoded.op, instr.op) << "pc " << pc;
    EXPECT_EQ(decoded.group, sim::instr_group(instr)) << "pc " << pc;
    EXPECT_EQ(dec.guarded(pc), sim::is_guarded(instr)) << "pc " << pc;
    const sim::DefUse expected = sim::def_use(instr);
    EXPECT_TRUE(same_regs(dec.def_use(pc).src_regs, expected.src_regs))
        << "pc " << pc;
    EXPECT_TRUE(same_regs(dec.def_use(pc).dst_regs, expected.dst_regs))
        << "pc " << pc;
  }
  // Copying a Program resets the cache on the copy, not the original.
  sim::Program copy = program;
  EXPECT_NE(&copy.decoded(), &dec);
  EXPECT_EQ(&program.decoded(), &dec);
}

}  // namespace
}  // namespace gfi
