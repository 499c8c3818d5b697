// ACE-style dead-site pruning: static classification, the PruneMap's
// injector-coordinate lookup, and the soundness contract — a pruned campaign
// must reproduce the unpruned campaign's records bit-for-bit on the same
// seeds.
#include <gtest/gtest.h>

#include "analysis/static_bound.h"
#include "arch/arch.h"
#include "fi/campaign.h"
#include "harden/swift.h"
#include "oracle_hooks.h"
#include "sa/ace.h"
#include "sassim/device.h"
#include "sassim/kernel_builder.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

using sim::CmpOp;
using sim::KernelBuilder;
using sim::Operand;

// The static notion of "value site" must match what the value-injection
// modes target, or the PruneMap would index sites the injector never
// samples (and vice versa).
TEST(SaPrune, ValueSiteGroupsMatchInjectorModes) {
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    const bool value_mode_target =
        fi::mode_targets_group(fi::InjectionMode::kIov, group) ||
        fi::mode_targets_group(fi::InjectionMode::kPred, group);
    EXPECT_EQ(sa::is_value_site_group(group), value_mode_target)
        << "group " << g;
  }
  // Stores belong to the address mode, not the value modes.
  EXPECT_FALSE(sa::is_value_site_group(sim::InstrGroup::kStore));
  EXPECT_TRUE(
      fi::mode_targets_group(fi::InjectionMode::kIoa, sim::InstrGroup::kStore));
}

TEST(SaPrune, ClassifiesDeadLiveAndPredicateSites) {
  KernelBuilder b("classes");
  b.mov_u32(2, Operand::imm_u(5));                             // pc 0: live
  b.mov_u32(9, Operand::imm_u(8));                             // pc 1: dead
  b.isetp(CmpOp::kLt, 0, Operand::reg(2), Operand::imm_u(9));  // pc 2: live P0
  b.isetp(CmpOp::kGe, 1, Operand::reg(2), Operand::imm_u(9));  // pc 3: dead P1
  b.sel(4, Operand::imm_u(1), Operand::imm_u(0), 0);           // pc 4
  b.ldc_u64(6, 0);                                             // pc 5
  b.stg(6, 4);                                                 // pc 6
  b.exit_();                                                   // pc 7
  auto program = b.build();
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();

  const auto sites = sa::StaticSiteAnalysis::analyze(program.value());
  EXPECT_EQ(sites.site_class(0), sa::SiteClass::kLive);
  EXPECT_EQ(sites.site_class(1), sa::SiteClass::kDead);
  EXPECT_EQ(sites.site_class(2), sa::SiteClass::kLive);
  EXPECT_EQ(sites.site_class(3), sa::SiteClass::kDead);
  EXPECT_EQ(sites.num_dead_pcs(), 2u);
}

fi::CampaignConfig base_config(const std::string& workload, u64 seed,
                               std::size_t injections) {
  fi::CampaignConfig config;
  config.workload = workload;
  config.machine = arch::toy();
  config.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  config.num_injections = injections;
  config.seed = seed;
  config.threads = 4;
  return config;
}

TEST(SaPrune, PruneMapFindUsesInjectorCoordinates) {
  const auto map = fi::Campaign::build_prune_map(base_config("histogram", 1, 1));
  ASSERT_TRUE(map.is_ok()) << map.status().to_string();
  EXPECT_GT(map.value().num_prunable(), 0u);

  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    const auto& entries = map.value().entries[g];
    for (const auto& entry : entries) {
      const auto* found = map.value().find(group, entry.occurrence);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->pc, entry.pc);
      EXPECT_EQ(found->dyn_index, entry.dyn_index);
    }
    // One past the last dynamic occurrence is never prunable.
    EXPECT_EQ(map.value().find(group, map.value().occurrences[g]), nullptr);
    if (!sa::is_value_site_group(group)) {
      EXPECT_TRUE(entries.empty());
    }
  }

  // The static bound is internally consistent with the map it came from.
  const auto bound = analysis::static_masked_bound(
      map.value(), fi::InjectionMode::kIov, std::nullopt);
  EXPECT_GT(bound.eligible, 0u);
  EXPECT_LE(bound.dead + bound.inert, bound.eligible);
  EXPECT_DOUBLE_EQ(bound.masked_lower_bound(),
                   static_cast<f64>(bound.dead) /
                       static_cast<f64>(bound.eligible));
}

void expect_maps_equal(const sa::PruneMap& want, const sa::PruneMap& got,
                       const std::string& what) {
  EXPECT_EQ(want.occurrences, got.occurrences) << what;
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto& a = want.entries[g];
    const auto& b = got.entries[g];
    ASSERT_EQ(a.size(), b.size()) << what << " group " << g;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::string at = what + " group " + std::to_string(g) +
                             " entry " + std::to_string(i);
      EXPECT_EQ(a[i].occurrence, b[i].occurrence) << at;
      EXPECT_EQ(a[i].dyn_index, b[i].dyn_index) << at;
      EXPECT_EQ(a[i].pc, b[i].pc) << at;
      EXPECT_EQ(a[i].exec_mask, b[i].exec_mask) << at;
      EXPECT_EQ(a[i].op, b[i].op) << at;
      EXPECT_EQ(a[i].cls, b[i].cls) << at;
    }
  }
}

/// One fault-free launch of `name` on `machine` under `options`; the
/// device is discarded.
sim::LaunchResult launch_fault_free(const std::string& name,
                                    const sim::MachineConfig& machine,
                                    const sim::LaunchOptions& options) {
  auto workload = wl::make_workload(name);
  EXPECT_NE(workload, nullptr) << name;
  sim::Device device(machine);
  auto spec = workload->setup(device);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  auto launch = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params,
                              options);
  EXPECT_TRUE(launch.is_ok()) << launch.status().to_string();
  EXPECT_FALSE(launch.value().trap.fired()) << name;
  return launch.value();
}

// The prune map is recorded natively (sim::SiteLog under sa::prune_watch) on
// whichever tier the campaign pins. The whole-launch SiteMapOracle hook,
// which observes every instruction on the instrumented tier, is the
// reference: entry for entry on every workload, on both paper archs and both
// tiers, with the hook-free launch running nothing instrumented.
TEST(SaPrune, NativePruneMapMatchesSiteMapOracle) {
  harden::register_hardened_workloads();
  const std::pair<const char*, sim::MachineConfig> archs[] = {
      {"a100", arch::a100()}, {"h100", arch::h100()}};
  for (const auto& [arch_name, machine] : archs) {
    for (const std::string& name : wl::workload_names()) {
      const std::string what = name + "/" + arch_name;
      const auto workload = wl::make_workload(name);
      const sim::Program& program = workload->program();
      sa::PruneMap oracle;
      oracle.analysis = sa::StaticSiteAnalysis::analyze(program);
      sim_test::SiteMapOracle hook(oracle);
      sim::LaunchOptions observed;
      observed.hooks.push_back(&hook);
      (void)launch_fault_free(name, machine, observed);

      sa::PruneMap native;
      native.analysis = oracle.analysis;
      sim::SiteLog sites;
      sites.watch = sa::prune_watch(program, native.analysis);
      sim::Profile profile;
      sim::LaunchOptions hook_free;
      hook_free.site_log = &sites;
      hook_free.profile = &profile;
      const sim::LaunchResult ran =
          launch_fault_free(name, machine, hook_free);
      EXPECT_EQ(ran.instrumented_warp_instrs, 0u) << what;
      native.record(program, sites, profile);
      expect_maps_equal(oracle, native, what + " (native launch)");

      fi::CampaignConfig config = base_config(name, 1, 1);
      config.machine = machine;
      for (const sim::EngineTier engine :
           {sim::EngineTier::kAuto, sim::EngineTier::kInstrumented}) {
        config.engine = engine;
        auto map = fi::Campaign::build_prune_map(config);
        ASSERT_TRUE(map.is_ok()) << what << ": " << map.status().to_string();
        expect_maps_equal(oracle, map.value(),
                          what + (engine == sim::EngineTier::kAuto
                                      ? " (auto)"
                                      : " (instrumented)"));
      }
    }
  }
}

void expect_records_identical(const fi::CampaignResult& a,
                              const fi::CampaignResult& b) {
  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& x = a.records[i];
    const auto& y = b.records[i];
    EXPECT_EQ(x.outcome, y.outcome) << "record " << i;
    EXPECT_EQ(x.pre_recovery, y.pre_recovery) << "record " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "record " << i;
    EXPECT_EQ(x.trap, y.trap) << "record " << i;
    EXPECT_EQ(x.error_magnitude, y.error_magnitude) << "record " << i;
    EXPECT_EQ(x.dyn_instrs, y.dyn_instrs) << "record " << i;
    EXPECT_EQ(x.site.group, y.site.group) << "record " << i;
    EXPECT_EQ(x.site.target_occurrence, y.site.target_occurrence)
        << "record " << i;
    EXPECT_EQ(x.site.lane_sel, y.site.lane_sel) << "record " << i;
    EXPECT_EQ(x.site.bit_sel, y.site.bit_sel) << "record " << i;
    EXPECT_EQ(x.effect.activated, y.effect.activated) << "record " << i;
    EXPECT_EQ(x.effect.corrected_by_ecc, y.effect.corrected_by_ecc)
        << "record " << i;
    EXPECT_EQ(x.effect.struck_dyn_index, y.effect.struck_dyn_index)
        << "record " << i;
    EXPECT_EQ(x.effect.struck_opcode, y.effect.struck_opcode) << "record " << i;
    EXPECT_EQ(x.effect.struck_group, y.effect.struck_group) << "record " << i;
    EXPECT_EQ(x.effect.struck_lane, y.effect.struck_lane) << "record " << i;
  }
}

// The acceptance property: same seeds, pruning on vs off, identical outcome
// tables and identical per-record fields. histogram covers the inert path
// (RZ-destination atomics, predicated-off sites); the SWIFT variant covers
// the dead-register path (unread detector values).
TEST(SaPrune, PairedCampaignsAreBitIdentical) {
  harden::register_hardened_workloads();
  for (const char* workload : {"histogram", "vecadd_swift"}) {
    auto config = base_config(workload, 0xBEEF, 200);
    auto unpruned = fi::Campaign::run(config);
    ASSERT_TRUE(unpruned.is_ok()) << unpruned.status().to_string();
    EXPECT_EQ(unpruned.value().pruned, 0u);

    config.prune_dead_sites = true;
    auto pruned = fi::Campaign::run(config);
    ASSERT_TRUE(pruned.is_ok()) << pruned.status().to_string();
    EXPECT_GT(pruned.value().pruned, 0u) << workload;
    EXPECT_LT(pruned.value().pruned, config.num_injections) << workload;

    expect_records_identical(unpruned.value(), pruned.value());
  }
}

// Dead-*bit* pruning (the bit-liveness refinement): same seeds, same
// records, strictly more injections credited than dead-site pruning on
// workloads with partially-dead footprints. histogram_swift carries both
// narrow-load partial sites and SWIFT detector chains.
TEST(SaPrune, DeadBitPairedCampaignsAreBitIdentical) {
  harden::register_hardened_workloads();
  for (const char* workload : {"histogram", "histogram_swift"}) {
    auto config = base_config(workload, 0xBEEF, 200);
    auto unpruned = fi::Campaign::run(config);
    ASSERT_TRUE(unpruned.is_ok()) << unpruned.status().to_string();

    config.prune_dead_sites = true;
    auto dead = fi::Campaign::run(config);
    ASSERT_TRUE(dead.is_ok()) << dead.status().to_string();

    config.prune_dead_bits = true;
    auto bits = fi::Campaign::run(config);
    ASSERT_TRUE(bits.is_ok()) << bits.status().to_string();

    expect_records_identical(unpruned.value(), dead.value());
    expect_records_identical(unpruned.value(), bits.value());
    // The bit refinement can only credit more, never less — and on these
    // workloads (fixed seed) it provably credits strictly more.
    EXPECT_GT(bits.value().pruned, dead.value().pruned) << workload;
    EXPECT_LT(bits.value().pruned, config.num_injections) << workload;
  }
}

// Double-bit flips are creditable only when *both* struck bits are dead;
// the records must stay identical to the unpruned double-flip campaign.
TEST(SaPrune, DeadBitPruningHandlesDoubleFlips) {
  harden::register_hardened_workloads();
  auto config = base_config("histogram_swift", 0xF00D, 200);
  config.model.flip = fi::BitFlipModel::kDouble;
  auto unpruned = fi::Campaign::run(config);
  ASSERT_TRUE(unpruned.is_ok()) << unpruned.status().to_string();

  config.prune_dead_sites = true;
  config.prune_dead_bits = true;
  auto pruned = fi::Campaign::run(config);
  ASSERT_TRUE(pruned.is_ok()) << pruned.status().to_string();
  expect_records_identical(unpruned.value(), pruned.value());
}

// Value-replacement flips at partial sites touch every footprint bit, so
// only fully-dead sites are creditable — but the records must still match.
TEST(SaPrune, DeadBitPruningFallsBackForRandomValueFlips) {
  harden::register_hardened_workloads();
  auto config = base_config("histogram_swift", 0xCAFE, 100);
  config.model.flip = fi::BitFlipModel::kRandomValue;
  auto unpruned = fi::Campaign::run(config);
  ASSERT_TRUE(unpruned.is_ok()) << unpruned.status().to_string();

  config.prune_dead_sites = true;
  config.prune_dead_bits = true;
  auto pruned = fi::Campaign::run(config);
  ASSERT_TRUE(pruned.is_ok()) << pruned.status().to_string();
  expect_records_identical(unpruned.value(), pruned.value());
}

// Partially-dead sites surface in the static bound and the per-bit AVF
// report, and the bit-level bound dominates the register-level one.
TEST(SaPrune, AvfReportTracksPartialSites) {
  const auto map =
      fi::Campaign::build_prune_map(base_config("histogram", 1, 1));
  ASSERT_TRUE(map.is_ok()) << map.status().to_string();

  const auto bound = analysis::static_masked_bound(
      map.value(), fi::InjectionMode::kIov, std::nullopt);
  EXPECT_GT(bound.partial, 0u);
  EXPECT_GT(bound.partial_dead_weight, 0.0);
  EXPECT_GE(bound.bit_masked_lower_bound(), bound.masked_lower_bound());

  const auto report =
      analysis::avf_report(map.value(), fi::InjectionMode::kIov);
  EXPECT_EQ(report.total.eligible, bound.eligible);
  f64 expected_weight = 0.0;
  for (u32 bit = 0; bit < 32; ++bit) {
    // Every per-bit bound dominates the register-level (dead-only) bound...
    EXPECT_GE(report.bit_bounds[bit] + 1e-12, bound.masked_lower_bound())
        << "bit " << bit;
    expected_weight += report.bit_bounds[bit];
  }
  // ...and for single-register footprints their average recovers the
  // expected random-bit bound.
  EXPECT_NEAR(expected_weight / 32.0, bound.bit_masked_lower_bound(), 1e-9);

  const std::string json =
      analysis::to_json(report, "histogram", "toy");
  EXPECT_NE(json.find("\"bit_bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"partial\""), std::string::npos);
}

// Pruning is defined for the value modes only; other modes must ignore the
// flag entirely (same results, nothing credited).
TEST(SaPrune, NonValueModesIgnorePruneFlag) {
  auto config = base_config("vecadd", 7, 40);
  config.model.mode = fi::InjectionMode::kIoa;
  auto off = fi::Campaign::run(config);
  ASSERT_TRUE(off.is_ok()) << off.status().to_string();

  config.prune_dead_sites = true;
  auto on = fi::Campaign::run(config);
  ASSERT_TRUE(on.is_ok()) << on.status().to_string();
  EXPECT_EQ(on.value().pruned, 0u);
  expect_records_identical(off.value(), on.value());
}

}  // namespace
}  // namespace gfi
