// Tests for the observability layer (src/obs): registry semantics under
// worker-thread concurrency, heartbeat sidecar round-trip and crash
// tolerance, the `gpufi status` renderer, and the end-to-end guarantees the
// campaign instrumentation makes — snapshot merges across shards equal the
// unsharded totals, metric counts match the journal, and telemetry never
// perturbs campaign results.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/thread_pool.h"
#include "fi/campaign.h"
#include "fi/journal.h"
#include "obs/heartbeat.h"
#include "obs/registry.h"
#include "obs/status.h"

namespace gfi {
namespace {

namespace fs = std::filesystem;

using fi::BitFlipModel;
using fi::Campaign;
using fi::CampaignConfig;
using fi::InjectionMode;
using fi::Outcome;
using obs::HeartbeatState;
using obs::HeartbeatWriter;
using obs::Registry;
using obs::ShardStatus;
using obs::Snapshot;

CampaignConfig base_config(const std::string& workload) {
  CampaignConfig config;
  config.workload = workload;
  config.machine = arch::toy();
  config.model = {InjectionMode::kIov, BitFlipModel::kSingle};
  config.num_injections = 60;
  config.seed = 7;
  config.threads = 4;
  return config;
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gfi_obs_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::string> outcome_names() {
  std::vector<std::string> names;
  for (int o = 0; o < fi::kOutcomeCount; ++o) {
    names.emplace_back(fi::to_string(static_cast<Outcome>(o)));
  }
  return names;
}

// ------------------------------------------------------------- registry --

TEST(ObsRegistry, CountersGaugesHistogramsBasics) {
  Registry registry;
  registry.counter("hits").inc();
  registry.counter("hits").inc(4);
  registry.gauge("depth").set(2.5);
  registry.histogram("lat", 0.0, 10.0, 10).observe(3.0);
  registry.histogram("lat", 0.0, 10.0, 10).observe(7.0);

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("hits"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 2.5);
  const auto& hist = snap.histograms.at("lat");
  EXPECT_DOUBLE_EQ(hist.stats.mean(), 5.0);
  EXPECT_EQ(hist.stats.count(), 2u);
  f64 binned = 0.0;
  for (const f64 c : hist.bin_counts) binned += c;
  EXPECT_DOUBLE_EQ(binned, 2.0);
}

TEST(ObsRegistry, HandlesAreStableAndNamed) {
  Registry registry;
  obs::Counter& a = registry.counter("same");
  obs::Counter& b = registry.counter("same");
  EXPECT_EQ(&a, &b);  // one instrument per name, cacheable handle
  a.inc();
  b.inc();
  EXPECT_EQ(registry.snapshot().counters.at("same"), 2u);
}

TEST(ObsRegistry, ConcurrentUpdatesFromWorkerThreadsAreLossless) {
  // Mirrors the campaign's usage: handles acquired up front, then hammered
  // from the injection thread pool. Run under GFI_SANITIZE this is also the
  // data-race check for the relaxed-atomic hot path.
  Registry registry;
  obs::Counter& counter = registry.counter("events");
  obs::LatencyHistogram& histogram = registry.histogram("lat", 0.0, 1.0, 8);
  constexpr std::size_t kJobs = 8000;
  ThreadPool pool(8);
  pool.parallel_for(kJobs, [&](std::size_t i) {
    counter.inc();
    registry.counter("events_via_lookup").inc();
    histogram.observe(static_cast<f64>(i % 10) / 10.0);
    registry.gauge("last").set(static_cast<f64>(i));
  });

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("events"), kJobs);
  EXPECT_EQ(snap.counters.at("events_via_lookup"), kJobs);
  const auto& hist = snap.histograms.at("lat");
  EXPECT_EQ(hist.stats.count(), kJobs);
  f64 binned = hist.dropped;
  for (const f64 c : hist.bin_counts) binned += c;
  EXPECT_DOUBLE_EQ(binned, static_cast<f64>(kJobs));
}

TEST(ObsSnapshot, MergeAddsCountersAndFoldsHistograms) {
  Registry a;
  Registry b;
  a.counter("n").inc(3);
  b.counter("n").inc(4);
  b.counter("only_b").inc(1);
  a.histogram("lat", 0.0, 10.0, 10).observe(2.0);
  b.histogram("lat", 0.0, 10.0, 10).observe(4.0);
  b.histogram("lat", 0.0, 10.0, 10).observe(6.0);

  Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("n"), 7u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  const auto& hist = merged.histograms.at("lat");
  EXPECT_EQ(hist.stats.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.stats.mean(), 4.0);  // Chan-style moment merge
}

TEST(ObsSnapshot, MergeWithMismatchedBoundsConservesTotals) {
  Registry a;
  Registry b;
  a.histogram("lat", 0.0, 10.0, 10).observe(5.0);
  b.histogram("lat", 0.0, 100.0, 10).observe(50.0);  // different bounds
  Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const auto& hist = merged.histograms.at("lat");
  f64 total = hist.dropped;
  for (const f64 c : hist.bin_counts) total += c;
  EXPECT_DOUBLE_EQ(total, 2.0);  // incompatible bins fold into dropped
  EXPECT_EQ(hist.stats.count(), 2u);
}

TEST(ObsSnapshot, LogScaleHistogramRoundTripsThroughSnapshotAndMerge) {
  // The campaign latency histogram's shape: 0.01 ms .. 10 s, 10 bins per
  // decade. The snapshot must carry the scale and exact edges, and merge
  // must fold equal log histograms bin-by-bin.
  const auto log = Histogram::Scale::kLog;
  Registry a;
  Registry b;
  a.histogram("lat", 0.01, 10000.0, 60, log).observe(0.05);  // bin 6
  a.histogram("lat", 0.01, 10000.0, 60, log).observe(5.0);   // bin 26
  b.histogram("lat", 0.01, 10000.0, 60, log).observe(5.0);
  b.histogram("lat", 0.01, 10000.0, 60, log).observe(2000.0);  // bin 53

  const Snapshot snap_a = a.snapshot();
  const auto& ha = snap_a.histograms.at("lat");
  EXPECT_EQ(ha.scale, log);
  EXPECT_DOUBLE_EQ(ha.lo, 0.01);
  EXPECT_DOUBLE_EQ(ha.hi, 10000.0);
  ASSERT_EQ(ha.bin_counts.size(), 60u);
  EXPECT_EQ(ha.bin_counts[6], 1.0);
  EXPECT_EQ(ha.bin_counts[26], 1.0);
  EXPECT_NE(snap_a.to_json().find("\"scale\":\"log\""), std::string::npos);

  Snapshot merged = snap_a;
  merged.merge(b.snapshot());
  const auto& hm = merged.histograms.at("lat");
  EXPECT_EQ(hm.scale, log);
  EXPECT_EQ(hm.bin_counts[6], 1.0);
  EXPECT_EQ(hm.bin_counts[26], 2.0);
  EXPECT_EQ(hm.bin_counts[53], 1.0);
  EXPECT_EQ(hm.dropped, 0.0);
  EXPECT_EQ(hm.stats.count(), 4u);

  // Same bounds and bin count but linear edges: bins cannot fold.
  Registry linear;
  linear.histogram("lat", 0.01, 10000.0, 60).observe(5.0);
  Snapshot mixed = snap_a;
  mixed.merge(linear.snapshot());
  const auto& hx = mixed.histograms.at("lat");
  EXPECT_EQ(hx.dropped, 1.0);
  EXPECT_EQ(hx.bin_counts[26], 1.0);
  EXPECT_EQ(hx.stats.count(), 3u);
}

TEST(ObsSnapshot, ToJsonIsWellFormedAndHandlesNonFinite) {
  Registry registry;
  registry.counter("c").inc(2);
  registry.gauge("g").set(std::numeric_limits<f64>::quiet_NaN());
  registry.histogram("h", 0.0, 1.0, 2);  // empty: min/max are non-finite
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"c\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

// ------------------------------------------------------------ heartbeat --

HeartbeatState sample_state() {
  HeartbeatState state;
  state.workload = "gemm";
  state.arch = "A100";
  state.shard_index = 2;
  state.shard_count = 4;
  state.done = 120;
  state.total = 250;
  state.outcome_counts.assign(fi::kOutcomeCount, 0);
  state.outcome_counts[static_cast<int>(Outcome::kSdc)] = 30;
  state.outcome_counts[static_cast<int>(Outcome::kMasked)] = 90;
  state.elapsed_s = 9.75;
  state.rate = 12.5;
  state.eta_s = 10.4;
  return state;
}

TEST(ObsHeartbeat, LineRoundTrips) {
  const HeartbeatState state = sample_state();
  auto parsed = obs::parse_heartbeat(obs::heartbeat_line(state));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().workload, "gemm");
  EXPECT_EQ(parsed.value().arch, "A100");
  EXPECT_EQ(parsed.value().shard_index, 2u);
  EXPECT_EQ(parsed.value().shard_count, 4u);
  EXPECT_EQ(parsed.value().done, 120u);
  EXPECT_EQ(parsed.value().total, 250u);
  EXPECT_EQ(parsed.value().outcome_counts, state.outcome_counts);
  EXPECT_DOUBLE_EQ(parsed.value().rate, 12.5);
  EXPECT_DOUBLE_EQ(parsed.value().eta_s, 10.4);
  EXPECT_FALSE(parsed.value().finished);
}

TEST(ObsHeartbeat, NanEtaSerializesAsNullAndParsesBackAsNan) {
  // An idle shard has rate 0 and ETA NaN; the line must stay valid JSON.
  HeartbeatState state = sample_state();
  state.rate = 0.0;
  state.eta_s = std::numeric_limits<f64>::quiet_NaN();
  const std::string line = obs::heartbeat_line(state);
  EXPECT_NE(line.find("\"eta_s\":null"), std::string::npos) << line;
  EXPECT_EQ(line.find("nan"), std::string::npos) << line;
  auto parsed = obs::parse_heartbeat(line);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_TRUE(std::isnan(parsed.value().eta_s));
}

TEST(ObsHeartbeat, LoadStatusFileKeepsLastParseableRecord) {
  const fs::path dir = scratch_dir("torn_tail");
  const std::string path = (dir / "x.status.jsonl").string();
  HeartbeatState early = sample_state();
  early.done = 10;
  HeartbeatState late = sample_state();
  late.done = 200;
  {
    std::ofstream out(path);
    out << obs::heartbeat_line(early) << "\n";
    out << obs::heartbeat_line(late) << "\n";
    // A crash mid-write leaves a torn line; it must not hide `late`.
    out << obs::heartbeat_line(sample_state()).substr(0, 35);
  }
  auto loaded = obs::load_status_file(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().done, 200u);
}

TEST(ObsHeartbeat, WriterEmitsInitialPerRecordAndDoneLines) {
  const fs::path dir = scratch_dir("writer");
  const std::string path = (dir / "w.status.jsonl").string();
  HeartbeatState initial = sample_state();
  initial.done = 0;
  initial.total = 3;
  initial.outcome_counts.assign(fi::kOutcomeCount, 0);
  auto writer = HeartbeatWriter::create(path, initial, /*interval_ms=*/0);
  ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();
  writer.value()->record(static_cast<int>(Outcome::kSdc));
  writer.value()->record(static_cast<int>(Outcome::kMasked));
  writer.value()->record(static_cast<int>(Outcome::kSdc));
  writer.value()->finish();
  writer.value().reset();

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_TRUE(obs::parse_heartbeat(line).is_ok()) << line;
  }
  EXPECT_EQ(lines, 5u);  // initial + 3 records (interval 0) + done
  auto last = obs::load_status_file(path);
  ASSERT_TRUE(last.is_ok());
  EXPECT_TRUE(last.value().finished);
  EXPECT_EQ(last.value().done, 3u);
  EXPECT_EQ(last.value().outcome_counts[static_cast<int>(Outcome::kSdc)], 2u);
}

TEST(ObsHeartbeat, SidecarPathDerivesFromJournal) {
  EXPECT_EQ(obs::status_path_for_journal("/tmp/c.jsonl"),
            "/tmp/c.jsonl.status.jsonl");
}

// --------------------------------------------------------------- status --

std::vector<ShardStatus> four_shard_fixture() {
  std::vector<ShardStatus> shards;
  for (u32 s = 0; s < 4; ++s) {
    HeartbeatState state = sample_state();
    state.shard_index = s;
    state.shard_count = 4;
    state.total = 250;
    state.done = s == 3 ? 250 : 100 + 25 * s;
    state.rate = 10.0;
    state.eta_s = static_cast<f64>(state.total - state.done) / state.rate;
    state.finished = s == 3;
    state.outcome_counts.assign(fi::kOutcomeCount, 0);
    state.outcome_counts[static_cast<int>(Outcome::kSdc)] = state.done / 4;
    state.outcome_counts[static_cast<int>(Outcome::kMasked)] =
        state.done - state.done / 4;
    shards.push_back({"shard" + std::to_string(s) + ".status.jsonl", state});
  }
  return shards;
}

TEST(ObsStatus, RendersFourShardFixture) {
  const std::string report =
      obs::render_status(four_shard_fixture(), outcome_names());
  EXPECT_NE(report.find("4 of 4 shard(s) reporting"), std::string::npos)
      << report;
  EXPECT_NE(report.find("0/4"), std::string::npos) << report;
  EXPECT_NE(report.find("3/4"), std::string::npos) << report;
  EXPECT_NE(report.find("done"), std::string::npos) << report;
  EXPECT_NE(report.find("SDC"), std::string::npos) << report;
  EXPECT_NE(report.find("Wilson 95% CI"), std::string::npos) << report;
  // 100+125+150+250 of 1000 total.
  EXPECT_NE(report.find("625/1000"), std::string::npos) << report;
}

TEST(ObsStatus, LoadStatusScansDirectoryAndOrdersShards) {
  const fs::path dir = scratch_dir("scan");
  auto shards = four_shard_fixture();
  // Write them out of order; the loader sorts by shard index.
  for (int s : {2, 0, 3, 1}) {
    std::ofstream out(dir / ("c.shard" + std::to_string(s) +
                             ".jsonl.status.jsonl"));
    out << obs::heartbeat_line(shards[static_cast<std::size_t>(s)].state)
        << "\n";
  }
  // An unparseable sidecar in the same directory is skipped, not fatal.
  std::ofstream(dir / "junk.status.jsonl") << "not json\n";

  auto loaded = obs::load_status(dir.string());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().size(), 4u);
  for (u32 s = 0; s < 4; ++s) {
    EXPECT_EQ(loaded.value()[s].state.shard_index, s);
  }
}

TEST(ObsStatus, LoadStatusAcceptsJournalPath) {
  const fs::path dir = scratch_dir("by_journal");
  const std::string journal = (dir / "c.jsonl").string();
  std::ofstream(obs::status_path_for_journal(journal))
      << obs::heartbeat_line(sample_state()) << "\n";
  auto loaded = obs::load_status(journal);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].state.done, 120u);
}

TEST(ObsStatus, LoadStatusFailsCleanlyOnEmptyDirectory) {
  const fs::path dir = scratch_dir("empty");
  EXPECT_FALSE(obs::load_status(dir.string()).is_ok());
}

// ------------------------------------------------- campaign integration --

TEST(ObsCampaign, MetricsMatchResultAndJournalCounts) {
  const fs::path dir = scratch_dir("counts");
  Registry registry;
  auto config = base_config("vecadd");
  config.journal_path = (dir / "c.jsonl").string();
  config.metrics = &registry;
  config.heartbeat_interval_ms = 0;
  auto result = Campaign::run(config);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("campaign.injections.completed"),
            config.num_injections);
  EXPECT_EQ(snap.counters.at("campaign.injections.attempted"),
            config.num_injections);
  u64 outcome_total = 0;
  for (int o = 0; o < fi::kOutcomeCount; ++o) {
    const std::string name =
        std::string("campaign.outcome.") +
        fi::to_string(static_cast<Outcome>(o));
    EXPECT_EQ(snap.counters.at(name),
              result.value().outcome_counts[static_cast<std::size_t>(o)])
        << name;
    outcome_total += snap.counters.at(name);
  }
  EXPECT_EQ(outcome_total, config.num_injections);
  EXPECT_EQ(snap.histograms.at("campaign.injection.latency_ms").stats.count(),
            config.num_injections);

  // The journal's outcome counts are the same totals the metrics report.
  auto journal = fi::Journal::load(*config.journal_path);
  ASSERT_TRUE(journal.is_ok());
  std::array<u64, fi::kOutcomeCount> journal_counts{};
  for (const auto& [index, record] : journal.value().records) {
    ++journal_counts[static_cast<std::size_t>(record.outcome)];
  }
  EXPECT_EQ(journal_counts, result.value().outcome_counts);

  // The sidecar's final record agrees too.
  auto beat = obs::load_status_file(
      obs::status_path_for_journal(*config.journal_path));
  ASSERT_TRUE(beat.is_ok()) << beat.status().to_string();
  EXPECT_TRUE(beat.value().finished);
  EXPECT_EQ(beat.value().done, config.num_injections);
  for (int o = 0; o < fi::kOutcomeCount; ++o) {
    EXPECT_EQ(beat.value().outcome_counts[static_cast<std::size_t>(o)],
              result.value().outcome_counts[static_cast<std::size_t>(o)]);
  }
}

TEST(ObsCampaign, TierInstructionCountersSumToJournalDyn) {
  // Per-tier dynamic instruction counters partition exactly what the
  // journal records as `dyn`. On the default tier the native strike
  // trigger runs one instruction per reached site instrumented; pinned to
  // kInstrumented, every instruction is.
  for (const sim::EngineTier engine :
       {sim::EngineTier::kAuto, sim::EngineTier::kInstrumented}) {
    const fs::path dir = scratch_dir("tier_dyn");
    Registry registry;
    auto config = base_config("gemm");
    config.engine = engine;
    config.journal_path = (dir / "c.jsonl").string();
    config.metrics = &registry;
    config.heartbeat_interval_ms = 0;
    auto result = Campaign::run(config);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();

    auto journal = fi::Journal::load(*config.journal_path);
    ASSERT_TRUE(journal.is_ok());
    u64 dyn = 0;
    u64 activated = 0;
    for (const auto& [index, record] : journal.value().records) {
      dyn += record.dyn_instrs;
      if (record.effect.activated) ++activated;
    }
    const Snapshot snap = registry.snapshot();
    const u64 instrumented =
        snap.counters.at("engine.dispatch.instrumented_winstrs");
    const u64 fast = snap.counters.at("engine.dispatch.fast_winstrs");
    const u64 downgrades = snap.counters.at("engine.dispatch.downgrades");
    EXPECT_EQ(instrumented + fast, dyn) << static_cast<int>(engine);
    EXPECT_EQ(snap.counters.count("campaign.path.instrumented"), 0u);
    if (engine == sim::EngineTier::kInstrumented) {
      EXPECT_EQ(fast, 0u);
      EXPECT_EQ(downgrades, 0u);  // a pinned instrumented launch never does
    } else {
      // At most one downgrade per launch, and nothing here is pruned.
      EXPECT_LE(downgrades,
                journal.value().records.size() - result.value().pruned);
      // One struck instruction per launch that reached its site.
      EXPECT_GE(instrumented, activated);
      EXPECT_LE(instrumented, config.num_injections);
      EXPECT_GT(fast, instrumented);
    }
  }
}

TEST(ObsCampaign, ShardedSnapshotsMergeToUnshardedTotals) {
  Registry whole;
  auto config = base_config("vecadd");
  config.metrics = &whole;
  auto unsharded = Campaign::run(config);
  ASSERT_TRUE(unsharded.is_ok()) << unsharded.status().to_string();

  Registry parts[2];
  Snapshot merged;
  for (u32 s = 0; s < 2; ++s) {
    auto shard_config = base_config("vecadd");
    shard_config.shard_index = s;
    shard_config.shard_count = 2;
    shard_config.metrics = &parts[s];
    auto shard = Campaign::run(shard_config);
    ASSERT_TRUE(shard.is_ok()) << shard.status().to_string();
    merged.merge(parts[s].snapshot());
  }

  const Snapshot want = whole.snapshot();
  for (const auto& [name, value] : want.counters) {
    if (name.rfind("campaign.golden_cache.", 0) == 0) continue;  // per-process
    EXPECT_EQ(merged.counters.at(name), value) << name;
  }
  EXPECT_EQ(
      merged.histograms.at("campaign.injection.latency_ms").stats.count(),
      want.histograms.at("campaign.injection.latency_ms").stats.count());
}

TEST(ObsCampaign, TelemetryDoesNotPerturbResults) {
  // The headline guarantee: outcome tables are bit-identical with
  // observability fully enabled (registry + heartbeats) and fully absent.
  const fs::path dir = scratch_dir("bit_identical");
  auto bare_config = base_config("saxpy");
  auto bare = Campaign::run(bare_config);
  ASSERT_TRUE(bare.is_ok()) << bare.status().to_string();

  Registry registry;
  auto instrumented_config = base_config("saxpy");
  instrumented_config.metrics = &registry;
  instrumented_config.journal_path = (dir / "c.jsonl").string();
  instrumented_config.heartbeat_interval_ms = 0;
  auto instrumented = Campaign::run(instrumented_config);
  ASSERT_TRUE(instrumented.is_ok()) << instrumented.status().to_string();

  EXPECT_EQ(bare.value().outcome_counts, instrumented.value().outcome_counts);
  ASSERT_EQ(bare.value().records.size(), instrumented.value().records.size());
  for (std::size_t i = 0; i < bare.value().records.size(); ++i) {
    EXPECT_EQ(bare.value().records[i].outcome,
              instrumented.value().records[i].outcome);
    EXPECT_EQ(bare.value().records[i].site.bit_sel,
              instrumented.value().records[i].site.bit_sel);
    EXPECT_EQ(bare.value().records[i].dyn_instrs,
              instrumented.value().records[i].dyn_instrs);
  }
}

TEST(ObsCampaign, ResumedRecordsCountTowardMetricsAndHeartbeat) {
  const fs::path dir = scratch_dir("resume");
  auto config = base_config("vecadd");
  config.journal_path = (dir / "c.jsonl").string();
  config.heartbeat_interval_ms = 0;
  {
    Registry first_registry;
    auto first_config = config;
    first_config.num_injections = 60;
    first_config.metrics = &first_registry;
    auto first = Campaign::run(first_config);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  }
  // Truncate the journal to 20 records to simulate a killed shard.
  std::vector<std::string> lines;
  {
    std::ifstream in(*config.journal_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 21u);  // header + 60 records
  {
    std::ofstream out(*config.journal_path, std::ios::trunc);
    for (std::size_t i = 0; i < 21; ++i) out << lines[i] << "\n";
  }

  Registry registry;
  config.metrics = &registry;
  auto resumed = Campaign::run(config);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().resumed, 20u);

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("campaign.injections.resumed"), 20u);
  // attempted/completed cover only this session's work...
  EXPECT_EQ(snap.counters.at("campaign.injections.attempted"), 40u);
  // ...but outcome counters cover the whole campaign, so the snapshot's
  // totals stay consistent with the merged journal.
  u64 outcome_total = 0;
  for (int o = 0; o < fi::kOutcomeCount; ++o) {
    outcome_total += snap.counters.at(
        std::string("campaign.outcome.") +
        fi::to_string(static_cast<Outcome>(o)));
  }
  EXPECT_EQ(outcome_total, 60u);

  auto beat = obs::load_status_file(
      obs::status_path_for_journal(*config.journal_path));
  ASSERT_TRUE(beat.is_ok());
  EXPECT_EQ(beat.value().done, 60u);
  EXPECT_TRUE(beat.value().finished);
}

}  // namespace
}  // namespace gfi
