// Tests for the adaptive campaign planner: the sequential stopping rule,
// stratified allocation, plan-event journaling, and the bit-identity
// contract — a stopped/stratified campaign that is killed, resumed,
// sharded, or merged must reproduce the exact bytes of an uninterrupted
// unsharded run deciding locally.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "arch/arch.h"
#include "common/stats.h"
#include "fi/campaign.h"
#include "fi/golden_cache.h"
#include "fi/journal.h"
#include "fi/planner.h"
#include "fi/supervisor.h"

namespace gfi {
namespace {

namespace fs = std::filesystem;

using fi::Campaign;
using fi::CampaignConfig;
using fi::Outcome;
using fi::PlanEvent;
using fi::Planner;
using fi::Supervisor;
using fi::SupervisorConfig;

constexpr u64 kSeed = 7;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gfi_plan_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// vecadd on toy with the planner knobs the whole file uses: K=50 blocks,
/// stop once every tracked CI is inside ±7% (reached around n=200 for this
/// workload's ~56% SDC rate), budget 600.
CampaignConfig adaptive_config(const std::string& journal) {
  CampaignConfig config;
  config.workload = "vecadd";
  config.machine = arch::toy();
  config.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  config.num_injections = 600;
  config.seed = kSeed;
  config.threads = 1;  // journal lines in index order
  config.journal_path = journal;
  config.planner.checkpoint_every = 50;
  config.planner.stop.target_half_width = 0.07;
  config.planner.stop.min_samples = 100;
  return config;
}

// ------------------------------------------------------- stopping rule ----

TEST(StoppingRule, DisabledByDefaultAndBelowFloor) {
  stats::StoppingRule off;
  EXPECT_FALSE(off.enabled());

  stats::StoppingRule rule;
  rule.target_half_width = 0.05;
  rule.min_samples = 100;
  EXPECT_TRUE(rule.enabled());
  // 0/50 has a sliver of a Wilson CI, but the floor holds the rule open
  // until the estimate has had a chance to move.
  EXPECT_FALSE(rule.satisfied(0, 50));
  EXPECT_TRUE(rule.satisfied(0, 400));
}

TEST(StoppingRule, FiresExactlyWhenTheWilsonCiFits) {
  stats::StoppingRule rule;
  rule.target_half_width = 0.05;
  rule.min_samples = 100;
  // p = 0.5 (worst case): half-width ~0.056 at n=300, ~0.049 at n=400.
  EXPECT_FALSE(rule.satisfied(150, 300));
  EXPECT_TRUE(rule.satisfied(200, 400));
}

// --------------------------------------------------- planner decisions ----

TEST(Planner, TracksThePaperHeadlineOutcomes) {
  const auto& tracked = fi::planner_tracked_outcomes();
  ASSERT_EQ(tracked.size(), 3u);
  EXPECT_EQ(tracked[0], Outcome::kMasked);
  EXPECT_EQ(tracked[1], Outcome::kSdc);
  EXPECT_EQ(tracked[2], Outcome::kDue);
}

TEST(Planner, PlanEventLinesRoundTrip) {
  PlanEvent alloc;
  alloc.kind = PlanEvent::Kind::kAlloc;
  alloc.checkpoint = 3;
  alloc.alloc[0] = 17;
  alloc.alloc[5] = 33;
  const std::string alloc_line = fi::plan_event_line(alloc);
  EXPECT_TRUE(fi::is_plan_line(alloc_line));
  auto alloc_parsed = fi::parse_plan_event(alloc_line);
  ASSERT_TRUE(alloc_parsed.is_ok()) << alloc_parsed.status().to_string();
  EXPECT_EQ(alloc_parsed.value(), alloc);

  PlanEvent stop;
  stop.kind = PlanEvent::Kind::kStop;
  stop.stop_at = 250;
  auto stop_parsed = fi::parse_plan_event(fi::plan_event_line(stop));
  ASSERT_TRUE(stop_parsed.is_ok()) << stop_parsed.status().to_string();
  EXPECT_EQ(stop_parsed.value(), stop);

  EXPECT_FALSE(fi::is_plan_line("{\"i\":3,\"outcome\":\"SDC\"}"));
  EXPECT_FALSE(fi::parse_plan_event("{\"plan\":\"nonsense\"}").is_ok());
}

TEST(Planner, PlanFileToleratesTornTailAndBindsToCampaign) {
  const fs::path dir = scratch_dir("plan_file");
  const std::string path = (dir / "plan.jsonl").string();
  CampaignConfig config = adaptive_config((dir / "unused.jsonl").string());

  PlanEvent stop;
  stop.kind = PlanEvent::Kind::kStop;
  stop.stop_at = 200;
  {
    std::ofstream out(path, std::ios::binary);
    out << fi::plan_file_header(config) << "\n"
        << fi::plan_event_line(stop) << "\n"
        << "{\"plan\":\"alloc\",\"ck";  // torn mid-append
  }
  auto loaded = fi::load_plan_file(path, config);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_TRUE(loaded.value().stop_at.has_value());
  EXPECT_EQ(*loaded.value().stop_at, 200u);
  EXPECT_TRUE(loaded.value().allocs.empty());

  // A plan file written for a different campaign is refused.
  CampaignConfig other = config;
  other.seed = kSeed + 1;
  EXPECT_FALSE(fi::load_plan_file(path, other).is_ok());
  // kNotFound (not an error) when the file does not exist yet.
  auto missing = fi::load_plan_file((dir / "nope.jsonl").string(), config);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ----------------------------------------------- sequential stopping ------

TEST(Planner, AdaptiveStopIsAPrefixOfTheFixedBudgetRun) {
  const fs::path dir = scratch_dir("stop_prefix");

  CampaignConfig fixed = adaptive_config((dir / "fixed.jsonl").string());
  fixed.planner = {};  // classic fixed budget
  auto fixed_run = Campaign::run(fixed);
  ASSERT_TRUE(fixed_run.is_ok()) << fixed_run.status().to_string();

  CampaignConfig adaptive = adaptive_config((dir / "adaptive.jsonl").string());
  auto adaptive_run = Campaign::run(adaptive);
  ASSERT_TRUE(adaptive_run.is_ok()) << adaptive_run.status().to_string();

  const u64 stopped_at = adaptive_run.value().effective_injections;
  ASSERT_LT(stopped_at, 600u);  // the rule fired inside the budget
  EXPECT_EQ(stopped_at % 50, 0u);  // only at checkpoint boundaries
  EXPECT_GE(stopped_at, 100u);     // never below the min-sample floor
  EXPECT_EQ(adaptive_run.value().records.size(), stopped_at);

  // Record i of the stopped campaign is the record i of the fixed one: the
  // stopping rule truncates the sequence, it never changes its content.
  const std::string fixed_bytes = read_file(*fixed.journal_path);
  const std::string adaptive_bytes = read_file(*adaptive.journal_path);
  std::istringstream lines(adaptive_bytes);
  std::string line;
  std::getline(lines, line);  // headers differ (planner fields) by design
  while (std::getline(lines, line)) {
    if (fi::is_plan_line(line)) continue;
    EXPECT_NE(fixed_bytes.find(line), std::string::npos)
        << "adaptive record not present in the fixed run: " << line;
  }
  // The decision itself is journaled, once.
  ASSERT_EQ(adaptive_run.value().plan.size(), 1u);
  EXPECT_EQ(adaptive_run.value().plan[0].kind, PlanEvent::Kind::kStop);
  EXPECT_EQ(adaptive_run.value().plan[0].stop_at, stopped_at);
}

TEST(Planner, KilledAndResumedAdaptiveCampaignIsByteIdentical) {
  const fs::path dir = scratch_dir("kill_resume");
  CampaignConfig config = adaptive_config((dir / "j.jsonl").string());
  config.planner.stratify = true;  // exercise alloc + stop replay together
  auto uninterrupted = Campaign::run(config);
  ASSERT_TRUE(uninterrupted.is_ok()) << uninterrupted.status().to_string();
  const std::string reference = read_file(*config.journal_path);

  // Kill the campaign mid-block: keep the header, the first two alloc
  // lines, and 130 records, plus a torn half-line the resume must discard.
  std::istringstream lines(reference);
  std::string line;
  std::string truncated;
  int records = 0;
  while (std::getline(lines, line) && records < 130) {
    truncated += line + "\n";
    if (!fi::is_plan_line(line) && line.find("\"i\":") != std::string::npos) {
      ++records;
    }
  }
  truncated += "{\"i\":130,\"outco";  // torn append
  {
    std::ofstream out(*config.journal_path, std::ios::binary);
    out << truncated;
  }

  auto resumed = Campaign::run(config);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_GT(resumed.value().resumed, 0u);
  EXPECT_EQ(read_file(*config.journal_path), reference);
}

// ------------------------------------------------------- stratification ---

TEST(Planner, StratifiedRunsJournalAllocationsDeterministically) {
  const fs::path dir = scratch_dir("stratified");
  CampaignConfig config = adaptive_config((dir / "a.jsonl").string());
  config.planner.stop = {};  // stratify-only: all 600 run
  config.planner.stratify = true;
  auto first = Campaign::run(config);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(first.value().effective_injections, 600u);
  // One allocation per block, journaled in schedule order.
  ASSERT_EQ(first.value().plan.size(), 12u);
  for (u64 c = 0; c < 12; ++c) {
    EXPECT_EQ(first.value().plan[c].kind, PlanEvent::Kind::kAlloc);
    EXPECT_EQ(first.value().plan[c].checkpoint, c);
    u64 total = 0;
    for (u64 n : first.value().plan[c].alloc) total += n;
    EXPECT_EQ(total, 50u);  // every block fully allocated
  }

  // A second fresh run reproduces the journal byte-for-byte.
  const std::string first_bytes = read_file(*config.journal_path);
  config.journal_path = (dir / "b.jsonl").string();
  auto second = Campaign::run(config);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  std::string second_bytes = read_file(*config.journal_path);
  EXPECT_EQ(first_bytes, second_bytes);
}

TEST(Planner, StratifiedRecordsHonorTheJournaledAllocation) {
  const fs::path dir = scratch_dir("strat_honor");
  CampaignConfig config = adaptive_config((dir / "j.jsonl").string());
  config.planner.stop = {};
  config.planner.stratify = true;
  config.num_injections = 100;
  auto run = Campaign::run(config);
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  // Per block, the realized per-group strike counts match the journaled
  // allocation exactly (group pinning consumes no sampling randomness).
  for (const PlanEvent& alloc : run.value().plan) {
    std::array<u64, sim::kInstrGroupCount> realized{};
    const u64 b0 = alloc.checkpoint * 50;
    for (u64 i = b0; i < b0 + 50; ++i) {
      const auto& site = run.value().records[i].site;
      ASSERT_TRUE(site.group.has_value());
      ++realized[static_cast<int>(*site.group)];
    }
    for (int g = 0; g < sim::kInstrGroupCount; ++g) {
      EXPECT_EQ(realized[g], alloc.alloc[g]) << "group " << g;
    }
  }
  // The post-stratified estimator is well-formed over these strata.
  const auto strata = analysis::group_strata(run.value(), Outcome::kSdc);
  EXPECT_FALSE(strata.empty());
  const f64 rate = stats::poststratified_rate(strata);
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 1.0);
}

TEST(Planner, ParkedFollowerFailsFastOnceItsSupervisorIsGone) {
  const fs::path dir = scratch_dir("follower_orphan");
  CampaignConfig config = adaptive_config((dir / "shard-0.jsonl").string());
  config.planner.stratify = true;
  config.shard_index = 0;
  config.shard_count = 2;
  config.planner.plan_path = (dir / "plan.jsonl").string();
  {
    // A plan with no allocation yet: the worker parks on checkpoint 0.
    std::ofstream out(*config.planner.plan_path, std::ios::binary);
    out << fi::plan_file_header(config) << "\n";
  }
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ::close(pair[0]);  // the supervisor's end: it died
  config.planner.wake_fd = pair[1];
  ASSERT_GE(config.planner.plan_wait_ms, 60000u);

  const auto started = std::chrono::steady_clock::now();
  auto run = Campaign::run(config);
  const auto waited = std::chrono::steady_clock::now() - started;
  ::close(pair[1]);
  ASSERT_FALSE(run.is_ok());
  EXPECT_NE(run.status().message().find("supervisor gone"), std::string::npos)
      << run.status().to_string();
  EXPECT_LT(waited, std::chrono::seconds(1));
}

TEST(Planner, ShardedCampaignRefusesToDecideLocally) {
  const fs::path dir = scratch_dir("shard_refuse");
  CampaignConfig config = adaptive_config((dir / "j.jsonl").string());
  config.shard_index = 0;
  config.shard_count = 2;
  auto run = Campaign::run(config);
  ASSERT_FALSE(run.is_ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------- quarantine -----

TEST(Campaign, QuarantineOrderAndDuplicatesDoNotChangeRecords) {
  CampaignConfig config;
  config.workload = "vecadd";
  config.machine = arch::toy();
  config.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  config.num_injections = 40;
  config.seed = kSeed;
  config.threads = 1;
  config.quarantine = {3, 7, 11};
  auto sorted = Campaign::run(config);
  ASSERT_TRUE(sorted.is_ok()) << sorted.status().to_string();
  // The binary-search membership test sees a normalized copy, so unsorted
  // and duplicated inputs classify identically.
  config.quarantine = {11, 3, 7, 3, 11};
  auto unsorted = Campaign::run(config);
  ASSERT_TRUE(unsorted.is_ok()) << unsorted.status().to_string();
  ASSERT_EQ(sorted.value().records.size(), unsorted.value().records.size());
  for (std::size_t i = 0; i < sorted.value().records.size(); ++i) {
    EXPECT_EQ(sorted.value().records[i].outcome,
              unsorted.value().records[i].outcome);
    const bool quarantined =
        sorted.value().records[i].outcome == Outcome::kQuarantined;
    EXPECT_EQ(quarantined, i == 3 || i == 7 || i == 11);
  }
}

// ------------------------------------------------- supervisor + merge -----

SupervisorConfig planner_sup_config(const fs::path& dir,
                                    const CampaignConfig& mirror,
                                    u32 shards) {
  SupervisorConfig config;
  config.exe = GFI_GPUFI_BIN;
  config.workload = mirror.workload;
  config.dir = dir.string();
  config.shards = shards;
  config.num_injections = mirror.num_injections;
  config.seed = mirror.seed;
  config.lease_ttl_ms = 3000;
  config.stall_timeout_ms = 0;
  config.worker_heartbeat_ms = 50;
  config.max_shard_attempts = 12;
  config.poison_threshold = 3;
  config.backoff_base_ms = 5;
  config.backoff_cap_ms = 20;
  config.campaign = mirror;
  config.campaign.journal_path.reset();
  config.worker_flags = {
      "--arch=toy",
      "--mode=iov",
      "--flip=single",
      "--injections=" + std::to_string(mirror.num_injections),
      "--seed=" + std::to_string(mirror.seed),
      "--golden-cache=" + (dir / "golden").string(),
      "--checkpoint-every=50",
  };
  if (mirror.planner.stopping()) {
    config.worker_flags.push_back("--stop-half-width=0.07");
    config.worker_flags.push_back("--stop-min=100");
  }
  if (mirror.planner.stratify) {
    config.worker_flags.push_back("--stratify=group");
  }
  return config;
}

TEST(Supervisor, AdaptiveRunMergesBitIdenticalToUnshardedAdaptive) {
  const fs::path dir = scratch_dir("sup_adaptive");
  CampaignConfig reference = adaptive_config((dir / "ref.jsonl").string());
  reference.planner.stratify = true;
  auto unsharded = Campaign::run(reference);
  ASSERT_TRUE(unsharded.is_ok()) << unsharded.status().to_string();
  const u64 stopped_at = unsharded.value().effective_injections;
  ASSERT_LT(stopped_at, 600u);

  auto config = planner_sup_config(dir / "run", reference, 3);
  auto ran = Supervisor::run(config);
  ASSERT_TRUE(ran.is_ok()) << ran.status().to_string();
  ASSERT_EQ(ran.value().shards_failed, 0u);
  EXPECT_EQ(ran.value().plan_stop, stopped_at);
  EXPECT_EQ(ran.value().merged.effective_injections, stopped_at);
  // The planner tails the shard journals: it reads each byte about once,
  // never once per checkpoint.
  u64 journal_bytes = 0;
  for (u32 s = 0; s < config.shards; ++s) {
    journal_bytes +=
        fs::file_size(Supervisor::shard_journal_path(config.dir, s));
  }
  EXPECT_GT(ran.value().planner_journal_bytes, 0u);
  EXPECT_LE(ran.value().planner_journal_bytes, journal_bytes);

  const std::string merged_path = (dir / "merged.jsonl").string();
  ASSERT_TRUE(
      fi::write_merged_journal(merged_path, ran.value().merged).is_ok());
  EXPECT_EQ(read_file(merged_path), read_file(*reference.journal_path));
}

TEST(Supervisor, AdaptiveRunSurvivesWorkerKillsBitIdentically) {
  const fs::path dir = scratch_dir("sup_chaos");
  CampaignConfig reference = adaptive_config((dir / "ref.jsonl").string());
  reference.planner.stratify = true;
  auto unsharded = Campaign::run(reference);
  ASSERT_TRUE(unsharded.is_ok()) << unsharded.status().to_string();

  auto config = planner_sup_config(dir / "run", reference, 3);
  // Every worker dies before its 31st injection: each shard needs several
  // relaunches, each resuming an adaptive journal mid-plan.
  config.worker_failpoints = "campaign.injection=kill@hit=31";
  auto ran = Supervisor::run(config);
  ASSERT_TRUE(ran.is_ok()) << ran.status().to_string();
  ASSERT_EQ(ran.value().shards_failed, 0u);
  EXPECT_GT(ran.value().crashes, 0u);
  EXPECT_EQ(ran.value().plan_stop,
            unsharded.value().effective_injections);

  const std::string merged_path = (dir / "merged.jsonl").string();
  ASSERT_TRUE(
      fi::write_merged_journal(merged_path, ran.value().merged).is_ok());
  EXPECT_EQ(read_file(merged_path), read_file(*reference.journal_path));
}

}  // namespace
}  // namespace gfi
