// perfbench harness: runs one benchmark workload of gpufi and prints its
// metrics.
//
//   perfbench_harness --workload=<name> --seed=<n> --seconds=<s>
//                     --trace=<0|1> --out=<dir> --gpufi=<path>
//
// --trace=0 measures the end-to-end metrics: the workload's campaign is run
// (cold golden cache, fresh journal and supervisor directory each time)
// until --seconds have passed, and medians over those repetitions are
// reported. --trace=1 measures the per-layer metrics by calling each
// layer's public functions from here, with spans around every call
// (trace.h). Both modes check the outputs before printing anything:
//   * repeated campaigns produce identical records;
//   * Campaign::run_single replays every injection to the same record;
//   * a decomposed replay (workload setup -> Device::launch -> workload
//     check, with snapshot/restore between retries) reproduces each
//     replayed record's trap, effect and dynamic instruction count;
//   * the supervised merged journal is byte-identical to the in-process
//     unsharded single-threaded journal;
//   * outcome counts sum to the injections the campaign answered.
// Any mismatch makes the result incorrect and the exit code 1.
//
// Everything is written under --out. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fi/campaign.h"
#include "fi/golden_cache.h"
#include "fi/journal.h"
#include "fi/planner.h"
#include "fi/supervisor.h"
#include "obs/registry.h"
#include "sa/ace.h"
#include "sassim/device.h"
#include "trace.h"
#include "workloads/workload.h"

extern char** environ;

namespace {

using namespace gfi;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using perfbench::Tracer;

f64 since_s(Clock::time_point t0) {
  return std::chrono::duration<f64>(Clock::now() - t0).count();
}

// ----------------------------------------------------------- workloads ---

/// One benchmark workload: a campaign shape, and whether it runs in process
/// (fi::Campaign::run) or under the supervisor (fi::Supervisor::run).
struct WorkloadSpec {
  const char* name;
  const char* kernel;
  const char* arch;  ///< a100 | h100
  const char* mode;  ///< iov | mem
  const char* flip;  ///< single | double
  u64 injections;
  u32 max_retries;
  bool prune_dead_bits;
  f64 stop_half_width;  ///< 0 = fixed budget
  bool stratify;
  bool supervised;
};

// Why each workload is here is recorded in BENCHMARK.json and
// interactions.json; the sizes keep one campaign near half a second in
// process (gemm, spmv) and near five seconds supervised (conv2d).
constexpr WorkloadSpec kWorkloads[] = {
    {"gemm-iov", "gemm", "a100", "iov", "single", 256, 0, false, 0.0, false,
     false},
    {"spmv-mem-retry", "spmv", "a100", "mem", "double", 640, 3, false, 0.0,
     false, false},
    {"conv2d-adaptive-sharded", "conv2d", "h100", "iov", "single", 5000, 0,
     true, 0.02, true, true},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

fi::CampaignConfig campaign_config(const WorkloadSpec& w, u64 seed,
                                   std::size_t threads) {
  fi::CampaignConfig c;
  c.workload = w.kernel;
  c.machine = std::string(w.arch) == "h100" ? arch::h100() : arch::a100();
  c.model.mode = std::string(w.mode) == "mem" ? fi::InjectionMode::kMemory
                                              : fi::InjectionMode::kIov;
  c.model.flip = std::string(w.flip) == "double" ? fi::BitFlipModel::kDouble
                                                 : fi::BitFlipModel::kSingle;
  c.num_injections = w.injections;
  c.seed = seed;
  c.threads = threads;
  c.max_retries = w.max_retries;
  c.prune_dead_sites = c.prune_dead_bits = w.prune_dead_bits;
  c.planner.stop.target_half_width = w.stop_half_width;
  c.planner.stratify = w.stratify;
  return c;
}

/// The `gpufi campaign` flags that describe the same campaign, in the form
/// `gpufi run` forwards them to its workers.
std::vector<std::string> worker_flags(const WorkloadSpec& w, u64 seed,
                                      const std::string& golden_dir) {
  std::vector<std::string> flags = {
      std::string("--arch=") + w.arch,
      std::string("--mode=") + w.mode,
      std::string("--flip=") + w.flip,
      "--injections=" + std::to_string(w.injections),
      "--seed=" + std::to_string(seed),
      "--persist=transient",
      "--golden-cache=" + golden_dir,
  };
  if (w.max_retries > 0) {
    flags.push_back("--max-retries=" + std::to_string(w.max_retries));
  }
  if (w.prune_dead_bits) flags.push_back("--prune=dead-bits");
  if (w.stop_half_width > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", w.stop_half_width);
    flags.push_back(std::string("--stop-half-width=") + buf);
  }
  if (w.stratify) flags.push_back("--stratify=group");
  return flags;
}

// ----------------------------------------------------------- statistics ---

f64 quantile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}
f64 median(const std::vector<f64>& v) { return quantile(v, 0.5); }
f64 sum(const std::vector<f64>& v) {
  f64 s = 0;
  for (f64 x : v) s += x;
  return s;
}

struct Metric {
  std::string name;
  f64 value = 0;
  std::string unit;
  std::size_t samples = 1;
};

/// User+system CPU seconds of this process plus its reaped children.
f64 cpu_seconds() {
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return tv(self.ru_utime) + tv(self.ru_stime) + tv(children.ru_utime) +
         tv(children.ru_stime);
}

/// Largest resident set of this process (VmHWM, which unlike ru_maxrss
/// does not carry over the parent's size across exec) or of any reaped
/// child, in MB.
f64 peak_rss_mb() {
  f64 self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stod(line.substr(6));
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kb, static_cast<f64>(children.ru_maxrss)) / 1024.0;
}

// -------------------------------------------------------------- checks ---

/// Collects correctness-gate results. Every failure is printed to stderr
/// and counted in `failed`.
struct Gates {
  u64 attempted = 0;
  u64 failed = 0;

  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// One answered campaign, in the form every gate compares: records in
/// global index order as journal lines, plus the plan they ran under.
struct Answer {
  std::vector<u64> indices;
  std::vector<fi::InjectionRecord> records;
  std::vector<fi::PlanEvent> plan;
  u64 effective = 0;
  std::array<u64, fi::kOutcomeCount> outcome_counts{};
  u64 pruned = 0;
};

Answer answer_of(const fi::CampaignResult& r) {
  return {r.run_indices, r.records, r.plan, r.effective_injections,
          r.outcome_counts, r.pruned};
}
Answer answer_of(const fi::MergedCampaign& m) {
  return {m.indices, m.records, m.plan, m.effective_injections,
          m.outcome_counts, 0};
}

void check_answer(const Answer& a, const std::string& what, Gates& gates) {
  u64 total = 0;
  for (u64 c : a.outcome_counts) total += c;
  gates.expect(total == a.effective,
               what + ": outcome counts sum to " + std::to_string(total) +
                   ", not to the " + std::to_string(a.effective) +
                   " injections answered");
  gates.expect(a.records.size() == a.effective,
               what + ": " + std::to_string(a.records.size()) +
                   " records for " + std::to_string(a.effective) +
                   " injections answered");
}

/// Record-by-record comparison through the journal serialization, which
/// covers every field of a record.
void check_same_records(const Answer& want, const Answer& got,
                        const std::string& what, Gates& gates) {
  if (want.indices != got.indices) {
    gates.fail(what + ": different injection indices (" +
               std::to_string(want.indices.size()) + " vs " +
               std::to_string(got.indices.size()) + ")");
    return;
  }
  u64 mismatched = 0;
  for (std::size_t k = 0; k < want.records.size(); ++k) {
    if (fi::Journal::record_line(want.indices[k], want.records[k]) !=
        fi::Journal::record_line(got.indices[k], got.records[k])) {
      if (mismatched == 0) {
        std::fprintf(stderr, "  want %s\n  got  %s\n",
                     fi::Journal::record_line(want.indices[k],
                                              want.records[k]).c_str(),
                     fi::Journal::record_line(got.indices[k],
                                              got.records[k]).c_str());
      }
      ++mismatched;
    }
  }
  if (mismatched > 0) {
    gates.failed += mismatched - 1;
    gates.fail(what + ": " + std::to_string(mismatched) +
               " record(s) differ");
  }
}

/// The instruction group a stratified plan assigned to global index `i`.
std::optional<sim::InstrGroup> stratum_for(const fi::CampaignConfig& config,
                                           const std::vector<fi::PlanEvent>& plan,
                                           u64 i) {
  if (!config.planner.stratify) return std::nullopt;
  const u64 k = config.planner.checkpoint_every;
  for (const fi::PlanEvent& e : plan) {
    if (e.kind == fi::PlanEvent::Kind::kAlloc && e.checkpoint == i / k) {
      return fi::Planner::group_for(e, i - e.checkpoint * k);
    }
  }
  return std::nullopt;
}

// -------------------------------------------------- campaign execution ---

struct Bench {
  const WorkloadSpec& spec;
  u64 seed;
  std::size_t threads;
  std::string out;
  std::string gpufi;
  Gates gates;
  int dir_counter = 0;

  fi::CampaignConfig config() const {
    return campaign_config(spec, seed, threads);
  }

  std::string fresh_dir(const std::string& stem) {
    const std::string dir = out + "/" + stem + "-" +
                            std::to_string(dir_counter++);
    fs::create_directories(dir);
    return dir;
  }
};

struct Timed {
  f64 wall_s = 0;
  f64 cpu_s = 0;
  Answer answer;
  std::string dir;      ///< everything this campaign wrote
  std::string journal;  ///< the campaign's journal (merged when supervised)
  std::vector<std::string> shard_journals;
  u64 worker_launches = 0;
};

/// Runs the campaign in process with a cold golden cache and a fresh
/// journal. Returns nullopt (and fails the gates) on a harness error.
std::optional<Timed> run_in_process(Bench& b, std::size_t threads) {
  fi::CampaignConfig config = b.config();
  config.threads = threads;
  const std::string dir = b.fresh_dir("inproc");
  config.journal_path = dir + "/campaign.jsonl";
  obs::Registry registry;
  config.metrics = &registry;
  fi::GoldenCache::instance().clear();
  const f64 cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  auto ran = fi::Campaign::run(config);
  Timed t;
  t.wall_s = since_s(t0);
  t.cpu_s = cpu_seconds() - cpu0;
  t.dir = dir;
  if (!ran.is_ok()) {
    b.gates.attempted += config.num_injections;
    b.gates.failed += config.num_injections;
    b.gates.fail("Campaign::run: " + ran.status().to_string());
    return std::nullopt;
  }
  t.answer = answer_of(ran.value());
  b.gates.attempted += t.answer.effective;
  t.journal = *config.journal_path;
  check_answer(t.answer, "in-process campaign", b.gates);
  return t;
}

/// Runs the campaign under fi::Supervisor with real `gpufi campaign`
/// workers, one shard per thread, and default supervisor timing.
std::optional<Timed> run_supervised(Bench& b) {
  const std::string dir = b.fresh_dir("supervised");
  const std::string golden_dir = dir + "/golden";
  fi::SupervisorConfig sc;
  sc.exe = b.gpufi;
  sc.workload = b.spec.kernel;
  sc.worker_flags = worker_flags(b.spec, b.seed, golden_dir);
  sc.dir = dir + "/run";
  sc.shards = static_cast<u32>(b.threads);
  sc.num_injections = b.spec.injections;
  sc.seed = b.seed;
  sc.campaign = b.config();
  fi::GoldenCache::instance().clear();
  fi::GoldenCache::instance().set_directory(golden_dir);
  const f64 cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  auto ran = fi::Supervisor::run(sc);
  Timed t;
  t.wall_s = since_s(t0);
  t.cpu_s = cpu_seconds() - cpu0;
  t.dir = dir;
  fi::GoldenCache::instance().set_directory("");
  if (!ran.is_ok()) {
    b.gates.attempted += b.spec.injections;
    b.gates.failed += b.spec.injections;
    b.gates.fail("Supervisor::run: " + ran.status().to_string());
    return std::nullopt;
  }
  const fi::SupervisorResult& r = ran.value();
  // Crashed or stalled workers and abandoned shards are failures here: the
  // workload injects no chaos, so every one of them is a harness fault.
  b.gates.expect(r.crashes == 0, std::to_string(r.crashes) +
                                     " worker crash(es)");
  b.gates.expect(r.stall_kills == 0, std::to_string(r.stall_kills) +
                                         " stalled worker(s) killed");
  b.gates.expect(r.shards_failed == 0, std::to_string(r.shards_failed) +
                                           " shard(s) abandoned");
  if (r.shards_failed > 0) {
    b.gates.attempted += b.spec.injections;
    return std::nullopt;
  }
  t.answer = answer_of(r.merged);
  b.gates.attempted += t.answer.effective;
  t.worker_launches = r.worker_launches;
  t.journal = dir + "/merged.jsonl";
  for (u32 s = 0; s < sc.shards; ++s) {
    t.shard_journals.push_back(fi::Supervisor::shard_journal_path(sc.dir, s));
  }
  auto written = fi::write_merged_journal(t.journal, r.merged);
  b.gates.expect(written.is_ok(), "write_merged_journal: " +
                                      written.to_string());
  check_answer(t.answer, "supervised campaign", b.gates);
  return t;
}

std::optional<Timed> run_campaign(Bench& b) {
  return b.spec.supervised ? run_supervised(b) : run_in_process(b, b.threads);
}

/// The pieces of set-up a campaign does before its first injection: the
/// golden run (what the golden cache does on a miss), the prune map when
/// the campaign prunes, and starting a worker process when it is
/// supervised. Returns the seconds taken, or nullopt with `error` set.
std::optional<f64> setup_once(const Bench& b, std::string* error) {
  const fi::CampaignConfig config = b.config();
  const auto t0 = Clock::now();
  auto golden = fi::Campaign::golden_run(config);
  if (!golden.is_ok()) {
    *error = "golden run: " + golden.status().to_string();
    return std::nullopt;
  }
  if (config.prune_dead_sites) {
    auto map = fi::Campaign::build_prune_map(config);
    if (!map.is_ok()) {
      *error = "prune map: " + map.status().to_string();
      return std::nullopt;
    }
  }
  if (b.spec.supervised) {
    // Process start-up of one worker binary, to the point it can act.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    std::string arg0 = b.gpufi;
    std::string arg1 = "version";
    char* argv[] = {arg0.data(), arg1.data(), nullptr};
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, b.gpufi.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      *error = "spawning " + b.gpufi + " version failed";
      return std::nullopt;
    }
  }
  return since_s(t0);
}

/// One set-up sample: the set-up done at once on every thread the
/// campaign uses, averaged. The supervisor starts its workers together
/// like this; and on hosts whose cores change speed independently a lone
/// set-up lands on a fast or a slow core, which makes a median of lone
/// set-ups jump between the two speeds from run to run.
f64 setup_sample(Bench& b) {
  std::vector<std::optional<f64>> secs(b.threads);
  std::vector<std::string> errors(b.threads);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < b.threads; ++t) {
      threads.emplace_back([&, t] { secs[t] = setup_once(b, &errors[t]); });
    }
  }
  f64 total = 0;
  for (std::size_t t = 0; t < b.threads; ++t) {
    if (secs[t]) total += *secs[t];
    b.gates.expect(secs[t].has_value(), errors[t]);
  }
  return total / static_cast<f64>(b.threads);
}

/// Repeats `once` at least `min_reps` times and until `budget_s` seconds
/// have passed (capped at `max_reps`); returns every sample.
std::vector<f64> repeat(const std::function<f64()>& once, int min_reps,
                        int max_reps, f64 budget_s) {
  std::vector<f64> samples;
  const auto t0 = Clock::now();
  while (static_cast<int>(samples.size()) < max_reps &&
         (static_cast<int>(samples.size()) < min_reps ||
          since_s(t0) < budget_s)) {
    samples.push_back(once());
  }
  return samples;
}

// ---------------------------------------------------------- the replays ---

/// Replays every injection of `want` through Campaign::run_single on a
/// thread pool, compares the records, and returns which ones the prune map
/// credited instead of simulating.
std::vector<u8> check_run_single(Bench& b, const Answer& want,
                                 const std::string& what) {
  std::vector<u8> pruned(want.indices.size(), 0);
  const fi::CampaignConfig config = b.config();
  auto golden = fi::Campaign::golden_run(config);
  if (!golden.is_ok()) {
    b.gates.fail("golden run: " + golden.status().to_string());
    return pruned;
  }
  std::optional<sa::PruneMap> map;
  if (config.prune_dead_sites) {
    auto built = fi::Campaign::build_prune_map(config);
    if (!built.is_ok()) {
      b.gates.fail("prune map: " + built.status().to_string());
      return pruned;
    }
    map = std::move(built).take();
  }
  Answer got = want;
  std::vector<std::string> errors(want.indices.size());
  ThreadPool pool(b.threads);
  pool.parallel_for(want.indices.size(), [&](std::size_t k) {
    const u64 i = want.indices[k];
    bool credited = false;
    auto r = fi::Campaign::run_single(
        config, golden.value().profile, golden.value().dyn_instrs, i,
        map ? &*map : nullptr, &credited, nullptr,
        stratum_for(config, want.plan, i));
    pruned[k] = credited ? 1 : 0;
    if (r.is_ok()) {
      got.records[k] = std::move(r).take();
    } else {
      errors[k] = r.status().to_string();
    }
  });
  b.gates.attempted += want.indices.size();
  for (const std::string& e : errors) {
    if (!e.empty()) b.gates.fail("run_single: " + e);
  }
  check_same_records(want, got, what, b.gates);
  return pruned;
}

/// What the decomposed replays measured.
struct ReplayTimes {
  std::vector<f64> setup_us, launch_us, check_us;
  f64 launch_winstrs = 0;
  u64 launches = 0;
  u64 downgraded = 0;
};

/// Replays injection `i` by calling the layers one at a time: workload
/// setup, Device::snapshot, Device::launch with the injector attached (or
/// the pre-launch memory upset applied), the workload check, and
/// Device::restore between retries. Returns "" when the record's trap,
/// effect, attempts and dynamic instruction count are reproduced, else
/// what differed. Memory mode re-draws its upset from the injection's RNG
/// stream in the order Campaign::run_single draws it.
std::string replay_decomposed(const fi::CampaignConfig& config,
                              u64 golden_dyn, u64 i,
                              const fi::InjectionRecord& want, Tracer& tracer,
                              ReplayTimes& times) {
  const auto inj = static_cast<std::int64_t>(i);
  auto workload = wl::make_workload(config.workload);
  if (!workload) return "unknown workload " + config.workload;
  sim::Device device(config.machine);
  auto setup_span = tracer.span("workloads.setup", inj);
  auto spec = workload->setup(device);
  times.setup_us.push_back(setup_span.close());
  if (!spec.is_ok()) return "setup: " + spec.status().to_string();

  const bool memory = config.model.mode == fi::InjectionMode::kMemory;
  std::optional<std::pair<u64, u32>> upset;  // (address, flip mask)
  if (memory) {
    Rng rng = Rng::for_stream(config.seed, i);
    const u32 lane = rng.next_u32();
    const u32 bit = config.fixed_bit ? *config.fixed_bit : rng.next_u32();
    const u32 bit2 = rng.next_u32();
    const u64 random_value = rng.next();
    if (lane != want.site.lane_sel || bit != want.site.bit_sel ||
        bit2 != want.site.bit_sel2 || random_value != want.site.random_value) {
      return "the RNG stream no longer yields the record's site";
    }
    const u64 allocated = device.memory().bytes_allocated();
    if (allocated >= 4) {
      const u64 addr = sim::GlobalMemory::kBaseAddress +
                       rng.next_below(allocated / 4) * 4;
      u32 mask = static_cast<u32>(random_value) | 1u;
      if (config.model.flip == fi::BitFlipModel::kSingle) {
        mask = 1u << (bit % 32);
      } else if (config.model.flip == fi::BitFlipModel::kDouble) {
        u32 b2 = bit2 % 32;
        if (b2 == bit % 32) b2 = (b2 + 1) % 32;
        mask = (1u << (bit % 32)) | (1u << b2);
      }
      upset.emplace(addr, mask);
    }
  }
  const u64 watchdog =
      config.watchdog_instrs
          ? *config.watchdog_instrs
          : golden_dyn * config.watchdog_multiplier + config.watchdog_floor;
  const bool stuck =
      config.model.persistence == fi::FaultPersistence::kStuckAt;

  sim::GlobalMemory::Snapshot snapshot;
  if (config.max_retries > 0) {
    auto s = tracer.span("recover.snapshot", inj);
    snapshot = device.snapshot();
  }
  fi::InjectionEffect effect;
  sim::Trap first;
  sim::Trap last;
  u32 attempts = 0;
  u64 dyn = 0;
  for (u32 attempt = 0;; ++attempt) {
    ++attempts;
    const bool armed = attempt == 0 || stuck;
    fi::InjectorHook injector(want.site, device.config());
    sim::LaunchOptions options;
    options.watchdog_instrs = watchdog;
    options.engine = config.engine;
    if (memory) {
      if (armed && upset) device.memory().inject_fault(upset->first,
                                                       upset->second);
    } else if (armed) {
      options.hooks.push_back(&injector);
    }
    auto launch_span = tracer.span("sassim.launch", inj);
    auto launched = device.launch(workload->program(), spec.value().grid,
                                  spec.value().block, spec.value().params,
                                  options);
    const f64 launch_us = launch_span.close();
    if (!launched.is_ok()) return "launch: " + launched.status().to_string();
    const sim::LaunchResult& result = launched.value();
    times.launch_us.push_back(launch_us);
    times.launch_winstrs += static_cast<f64>(result.dyn_warp_instrs);
    ++times.launches;
    if (result.downgraded) ++times.downgraded;
    if (attempt == 0) {
      if (memory) {
        effect.activated = upset.has_value();
      } else {
        effect = injector.effect();
      }
    }
    sim::Trap trap = result.trap;
    // As in run_single: a trapped launch, or an injection whose site was
    // never reached, is not checked.
    if (!trap.fired() && (attempt > 0 || memory || effect.activated)) {
      auto check_span = tracer.span("workloads.check", inj);
      auto checked = workload->check(device);
      times.check_us.push_back(check_span.close());
      if (!checked.is_ok()) return "check: " + checked.status().to_string();
      if (checked.value().trap != sim::TrapKind::kNone) {
        trap.kind = checked.value().trap;
      }
    }
    dyn += result.dyn_warp_instrs;
    if (attempt == 0) first = trap;
    last = trap;
    if (!trap.fired() || attempt >= config.max_retries) break;
    auto restore_span = tracer.span("recover.restore", inj);
    device.restore(snapshot);
  }
  const sim::TrapKind trap = last.fired()    ? last.kind
                             : first.fired() ? first.kind
                                             : sim::TrapKind::kNone;
  const fi::InjectionEffect& w = want.effect;
  std::string diff;
  if (trap != want.trap) diff += " trap";
  if (attempts != want.attempts) diff += " attempts";
  if (dyn != want.dyn_instrs) diff += " dyn_instrs";
  if (effect.activated != w.activated ||
      effect.corrected_by_ecc != w.corrected_by_ecc ||
      effect.struck_dyn_index != w.struck_dyn_index ||
      effect.struck_opcode != w.struck_opcode ||
      effect.struck_group != w.struck_group ||
      effect.struck_lane != w.struck_lane) {
    diff += " effect";
  }
  return diff.empty() ? "" : "differs in" + diff;
}

/// Decomposed replay of up to `limit` simulated (not credited) injections,
/// spread evenly over the campaign.
ReplayTimes check_decomposed(Bench& b, const Answer& want,
                             const std::vector<u8>& pruned, std::size_t limit,
                             Tracer& tracer) {
  ReplayTimes times;
  const fi::CampaignConfig config = b.config();
  auto golden = fi::Campaign::golden_run(config);
  if (!golden.is_ok()) {
    b.gates.fail("golden run: " + golden.status().to_string());
    return times;
  }
  std::vector<std::size_t> simulated;
  for (std::size_t k = 0; k < want.indices.size(); ++k) {
    if (!pruned[k]) simulated.push_back(k);
  }
  const std::size_t step = std::max<std::size_t>(1, simulated.size() / limit);
  for (std::size_t s = 0; s < simulated.size() && s / step < limit;
       s += step) {
    const std::size_t k = simulated[s];
    auto root = tracer.span("fi.replay", static_cast<std::int64_t>(
                                             want.indices[k]));
    const std::string diff =
        replay_decomposed(config, golden.value().dyn_instrs, want.indices[k],
                          want.records[k], tracer, times);
    ++b.gates.attempted;
    b.gates.expect(diff.empty(), "decomposed replay of injection " +
                                     std::to_string(want.indices[k]) + " " +
                                     diff);
  }
  return times;
}

void check_same_file(Bench& b, const std::string& want,
                     const std::string& got, const std::string& what) {
  const std::string a = read_file(want);
  b.gates.expect(!a.empty() && a == read_file(got),
                 what + ": " + got + " is not byte-identical to " + want);
}

// ------------------------------------------------------- end-to-end run ---

std::vector<Metric> measure_end_to_end(Bench& b, f64 seconds,
                                       u64* inj_to_answer) {
  Tracer untraced(false);
  setup_sample(b);  // warm-up: the first set-up of a process pays page faults
  // Set-up is short next to a campaign, so it is repeated between campaign
  // runs, for about a twentieth of the time, and sampled across the whole
  // measuring window rather than at its start.
  std::vector<f64> setup, wall, cpu;
  std::vector<u64> answered;
  std::optional<Timed> first;
  const auto t0 = Clock::now();
  while (wall.size() < 2 || (since_s(t0) < seconds && wall.size() < 200)) {
    std::optional<Timed> t = run_campaign(b);
    if (!t) break;
    wall.push_back(t->wall_s);
    cpu.push_back(t->cpu_s);
    answered.push_back(t->answer.effective);
    const std::vector<f64> more =
        repeat([&] { return setup_sample(b); }, 1, 1000, t->wall_s / 20);
    setup.insert(setup.end(), more.begin(), more.end());
    if (!first) {
      first = std::move(t);
    } else {
      check_same_records(first->answer, t->answer, "repeated campaign",
                         b.gates);
      fs::remove_all(t->dir);
    }
  }
  if (!first) return {};
  const f64 peak_mb = peak_rss_mb();  // before the checks below add theirs
  const f64 setup_s = median(setup);
  std::vector<f64> rate;
  for (std::size_t r = 0; r < wall.size(); ++r) {
    rate.push_back(static_cast<f64>(answered[r]) /
                   std::max(wall[r] - setup_s, 1e-9));
  }
  *inj_to_answer = first->answer.effective;

  const std::vector<u8> pruned =
      check_run_single(b, first->answer, "run_single replay");
  check_decomposed(b, first->answer, pruned, 8, untraced);
  if (b.spec.supervised) {
    std::optional<Timed> ref = run_in_process(b, 1);
    if (ref) {
      check_same_records(ref->answer, first->answer,
                         "supervised vs in-process records", b.gates);
      check_same_file(b, ref->journal, first->journal,
                      "supervised merged journal");
    }
  }
  const std::size_t n = wall.size();
  return {
      {"inj_per_s", median(rate), "1/s", n},
      {"wall_s", median(wall), "s", n},
      {"setup_s", setup_s, "s", setup.size()},
      {"inj_to_answer", static_cast<f64>(first->answer.effective), "count",
       n},
      {"cpu_s", median(cpu), "s", n},
      {"peak_rss_mb", peak_mb, "MB", 1},
  };
}

// ----------------------------------------------------------- traced run ---

/// Campaign::run for one thread, decomposed into the public calls it makes
/// — golden run, journal creation, prune map, planner decisions,
/// run_single and JournalWriter::append per injection — each inside a span.
struct TracedCampaign {
  f64 wall_s = 0;
  Answer answer;
  std::vector<u8> pruned;
  std::vector<f64> run_single_us, append_us;
  std::string journal;
};

std::optional<TracedCampaign> traced_campaign(Bench& b, Tracer& tracer) {
  TracedCampaign tc;
  const fi::CampaignConfig config = b.config();
  tc.journal = b.fresh_dir("traced") + "/campaign.jsonl";
  fi::GoldenCache::instance().clear();
  const auto t0 = Clock::now();
  auto root = tracer.span("fi.campaign");
  Result<fi::Campaign::Golden> golden = [&] {
    auto s = tracer.span("fi.golden");
    return fi::GoldenCache::instance().get_or_run(config);
  }();
  if (!golden.is_ok()) {
    b.gates.fail("golden run: " + golden.status().to_string());
    return std::nullopt;
  }
  auto writer = [&] {
    auto s = tracer.span("journal.create");
    return fi::JournalWriter::create(
        tc.journal, fi::make_journal_header(config, golden.value()));
  }();
  if (!writer.is_ok()) {
    b.gates.fail("journal: " + writer.status().to_string());
    return std::nullopt;
  }
  std::optional<sa::PruneMap> map;
  if (config.prune_dead_sites) {
    auto s = tracer.span("sa.prune_map");
    auto built = fi::Campaign::build_prune_map(config);
    if (!built.is_ok()) {
      b.gates.fail("prune map: " + built.status().to_string());
      return std::nullopt;
    }
    map = std::move(built).take();
  }
  std::optional<fi::Planner> planner;
  if (config.planner.active()) {
    auto created = fi::Planner::create(config, golden.value().profile);
    if (!created.is_ok()) {
      b.gates.fail("planner: " + created.status().to_string());
      return std::nullopt;
    }
    planner = std::move(created).take();
  }

  const u64 n = config.num_injections;
  const u64 k = planner ? planner->checkpoint_every() : n;
  u64 effective = n;
  bool ok = true;        // every run_single succeeded
  bool journaled = true;  // every journal line was written
  for (u64 c = 0; ok && c * k < effective; ++c) {
    const u64 b0 = c * k;
    const u64 b1 = std::min(b0 + k, n);
    std::optional<fi::PlanEvent> alloc;
    if (config.planner.stratify) {
      auto s = tracer.span("planner.alloc");
      alloc = planner->make_alloc(c);
      journaled = writer.value()->append_plan(*alloc).is_ok() && journaled;
      tc.answer.plan.push_back(*alloc);
    }
    for (u64 i = b0; i < b1; ++i) {
      const auto inj = static_cast<std::int64_t>(i);
      bool credited = false;
      auto single = tracer.span("fi.run_single", inj);
      auto r = fi::Campaign::run_single(
          config, golden.value().profile, golden.value().dyn_instrs, i,
          map ? &*map : nullptr, &credited, nullptr,
          alloc ? fi::Planner::group_for(*alloc, i - b0) : std::nullopt);
      tc.run_single_us.push_back(single.close());
      ++b.gates.attempted;
      if (!r.is_ok()) {
        b.gates.fail("run_single: " + r.status().to_string());
        ok = false;
        break;
      }
      auto append = tracer.span("journal.append", inj);
      journaled = writer.value()->append(i, r.value()).is_ok() && journaled;
      tc.append_us.push_back(append.close());
      tc.answer.indices.push_back(i);
      tc.answer.records.push_back(std::move(r).take());
      tc.pruned.push_back(credited ? 1 : 0);
    }
    if (planner) {
      auto s = tracer.span("planner.decide");
      for (u64 i = b0; i < b1 && i < tc.answer.records.size(); ++i) {
        planner->observe(tc.answer.records[i]);
      }
      if (config.planner.stopping() && b1 < n && planner->stop_satisfied()) {
        fi::PlanEvent stop;
        stop.kind = fi::PlanEvent::Kind::kStop;
        stop.stop_at = b1;
        journaled = writer.value()->append_plan(stop).is_ok() && journaled;
        tc.answer.plan.push_back(stop);
        effective = b1;
      }
    }
  }
  writer.value().reset();  // flush and close before the file is compared
  root.close();
  tc.wall_s = since_s(t0);
  b.gates.expect(journaled, "traced campaign: a journal append failed");
  tc.answer.effective = effective;
  for (const fi::InjectionRecord& r : tc.answer.records) {
    ++tc.answer.outcome_counts[static_cast<int>(r.outcome)];
  }
  for (u8 p : tc.pruned) tc.answer.pruned += p;
  return tc;
}

std::vector<Metric> measure_layers(Bench& b, Tracer& tracer,
                                   u64* inj_to_answer) {
  const fi::CampaignConfig config = b.config();
  std::vector<Metric> m;

  // Decode of a fresh Program instance (each workload instance owns one).
  std::vector<f64> decode_us;
  for (int r = 0; r < 20; ++r) {
    auto workload = wl::make_workload(config.workload);
    auto s = tracer.span("sassim.decode");
    (void)workload->program().decoded();
    decode_us.push_back(s.close());
  }
  std::vector<f64> golden_ms;
  for (int r = 0; r < 5; ++r) {
    auto s = tracer.span("fi.golden");
    auto g = fi::Campaign::golden_run(config);
    golden_ms.push_back(s.close() / 1e3);
    b.gates.expect(g.is_ok(), "golden run: " + g.status().to_string());
  }
  std::vector<f64> prune_ms;
  for (int r = 0; r < 5; ++r) {
    auto s = tracer.span("sa.prune_map");
    auto p = fi::Campaign::build_prune_map(config);
    prune_ms.push_back(s.close() / 1e3);
    b.gates.expect(p.is_ok(), "prune map: " + p.status().to_string());
  }
  // Fault-free, hook-free launches of the same kernel, bracketed by a
  // snapshot and the restore a retry would do.
  std::vector<f64> hookfree_ns, restore_us;
  for (int r = 0; r < 10; ++r) {
    auto workload = wl::make_workload(config.workload);
    sim::Device device(config.machine);
    auto spec = workload->setup(device);
    if (!spec.is_ok()) {
      b.gates.fail("setup: " + spec.status().to_string());
      break;
    }
    sim::GlobalMemory::Snapshot snapshot = device.snapshot();
    sim::LaunchOptions options;
    options.engine = config.engine;
    auto s = tracer.span("sassim.launch_hookfree");
    auto launched = device.launch(workload->program(), spec.value().grid,
                                  spec.value().block, spec.value().params,
                                  options);
    const f64 us = s.close();
    if (!launched.is_ok() || !launched.value().ok()) {
      b.gates.fail("fault-free launch trapped");
      break;
    }
    hookfree_ns.push_back(us * 1e3 /
                          static_cast<f64>(launched.value().dyn_warp_instrs));
    auto rs = tracer.span("recover.restore");
    device.restore(snapshot);
    restore_us.push_back(rs.close());
  }

  // The untraced campaign at full width, the supervised one, and pairs of
  // untraced single-threaded and traced campaigns, alternated so that
  // drifting host speed affects both sides alike. The first single-threaded
  // journal is the byte reference for all the others.
  constexpr int kPairs = 3;
  std::vector<Timed> wide;
  for (int r = 0; r < kPairs; ++r) {
    if (std::optional<Timed> t = run_in_process(b, b.threads)) {
      wide.push_back(std::move(*t));
    }
  }
  std::optional<Timed> supervised;
  if (b.spec.supervised) supervised = run_supervised(b);
  std::vector<Timed> narrow;
  std::vector<TracedCampaign> traced;
  for (int r = 0; r < kPairs; ++r) {
    if (std::optional<Timed> t = run_in_process(b, 1)) {
      narrow.push_back(std::move(*t));
    }
    if (std::optional<TracedCampaign> t = traced_campaign(b, tracer)) {
      traced.push_back(std::move(*t));
    }
  }
  if (wide.size() < kPairs || narrow.size() < kPairs ||
      traced.size() < kPairs || (b.spec.supervised && !supervised)) {
    return {};
  }
  const Answer& ref = narrow[0].answer;
  const std::string& ref_journal = narrow[0].journal;
  for (const Timed& t : wide) {
    check_same_records(ref, t.answer, "threads=N vs threads=1 records",
                       b.gates);
  }
  for (int r = 0; r < kPairs; ++r) {
    check_same_records(ref, narrow[r].answer, "repeated threads=1 records",
                       b.gates);
    check_same_records(ref, traced[r].answer, "traced run_single records",
                       b.gates);
    b.gates.expect(ref.plan == traced[r].answer.plan,
                   "traced planner decisions differ from Campaign::run's");
    check_answer(traced[r].answer, "traced campaign", b.gates);
    check_same_file(b, ref_journal, traced[r].journal, "traced journal");
  }
  if (supervised) {
    check_same_records(ref, supervised->answer,
                       "supervised vs in-process records", b.gates);
    check_same_file(b, ref_journal, supervised->journal,
                    "supervised merged journal");
  }
  *inj_to_answer = ref.effective;

  const ReplayTimes replay =
      check_decomposed(b, ref, traced[0].pruned, 64, tracer);

  std::vector<f64> load_ms, merge_ms;
  const std::vector<std::string> shards =
      supervised ? supervised->shard_journals
                 : std::vector<std::string>{ref_journal};
  for (int r = 0; r < 5; ++r) {
    auto ls = tracer.span("journal.load");
    auto loaded = fi::Journal::load(ref_journal);
    load_ms.push_back(ls.close() / 1e3);
    b.gates.expect(loaded.is_ok(), "journal load: " +
                                       loaded.status().to_string());
    auto ms = tracer.span("journal.merge");
    auto merged = fi::merge_journals(shards);
    merge_ms.push_back(ms.close() / 1e3);
    b.gates.expect(merged.is_ok(), "journal merge: " +
                                       merged.status().to_string());
  }

  // Counts over the answered campaign.
  const f64 n = static_cast<f64>(ref.records.size());
  f64 dyn = 0, struck = 0, attempts = 0, recovered = 0;
  for (const fi::InjectionRecord& r : ref.records) {
    dyn += static_cast<f64>(r.dyn_instrs);
    struck += static_cast<f64>(r.effect.struck_dyn_index);
    attempts += r.attempts;
    recovered += r.outcome == fi::Outcome::kRecoveredRetry ? 1 : 0;
  }
  const u64 checkpoints =
      config.planner.active()
          ? (ref.effective + config.planner.checkpoint_every - 1) /
                config.planner.checkpoint_every
          : 0;

  const f64 launch_ns = sum(replay.launch_us) * 1e3 /
                        std::max(replay.launch_winstrs, 1.0);
  const f64 hookfree = median(hookfree_ns);
  // Injection phase of the untraced full-width campaign: its wall time less
  // the set-up it did before the first injection.
  std::vector<f64> wide_s, narrow_s, traced_s, busy_s, run_single_ms,
      append_us;
  for (int r = 0; r < kPairs; ++r) {
    wide_s.push_back(wide[r].wall_s);
    narrow_s.push_back(narrow[r].wall_s);
    traced_s.push_back(traced[r].wall_s);
    busy_s.push_back(sum(traced[r].run_single_us) / 1e6);
    for (f64 us : traced[r].run_single_us) run_single_ms.push_back(us / 1e3);
    append_us.insert(append_us.end(), traced[r].append_us.begin(),
                     traced[r].append_us.end());
  }
  const f64 phase_s =
      median(wide_s) - median(golden_ms) / 1e3 -
      (config.prune_dead_sites ? median(prune_ms) / 1e3 : 0.0);
  const f64 overhead_s =
      supervised ? supervised->wall_s - median(wide_s) : 0.0;
  std::vector<f64> launch_ms;
  for (f64 us : replay.launch_us) launch_ms.push_back(us / 1e3);
  std::error_code ec;
  const f64 journal_bytes = static_cast<f64>(fs::file_size(ref_journal, ec));

  const std::size_t nr = replay.launch_us.size();
  const std::size_t ns = run_single_ms.size();
  m = {
      {"workloads.setup_us", median(replay.setup_us), "us",
       replay.setup_us.size()},
      {"workloads.check_us", median(replay.check_us), "us",
       replay.check_us.size()},
      {"sassim.decode_us", median(decode_us), "us", decode_us.size()},
      {"sassim.launch_ms.p50", quantile(launch_ms, 0.5), "ms", nr},
      {"sassim.launch_ms.p99", quantile(launch_ms, 0.99), "ms", nr},
      {"sassim.launch_ns_per_winstr", launch_ns, "ns", nr},
      {"sassim.hookfree_ns_per_winstr", hookfree, "ns", hookfree_ns.size()},
      {"sassim.prefix_overhead_frac", 1.0 - hookfree / launch_ns, "frac", nr},
      {"sassim.winstr_per_inj", dyn / n, "count", ref.records.size()},
      {"sassim.prefix_winstr_frac", struck / std::max(dyn, 1.0), "frac",
       ref.records.size()},
      {"sassim.downgraded_frac",
       static_cast<f64>(replay.downgraded) /
           static_cast<f64>(std::max<u64>(replay.launches, 1)),
       "frac", nr},
      {"recover.attempts_per_inj", attempts / n, "count",
       ref.records.size()},
      {"recover.restore_us", median(restore_us), "us", restore_us.size()},
      {"recover.recovered_frac", recovered / n, "frac", ref.records.size()},
      {"fi.golden_ms", median(golden_ms), "ms", golden_ms.size()},
      {"sa.prune_map_ms", median(prune_ms), "ms", prune_ms.size()},
      {"fi.run_single_ms.p50", quantile(run_single_ms, 0.5), "ms", ns},
      {"fi.run_single_ms.p99", quantile(run_single_ms, 0.99), "ms", ns},
      {"fi.pool_efficiency",
       median(busy_s) /
           (static_cast<f64>(b.threads) * std::max(phase_s, 1e-9)),
       "frac", kPairs},
      {"fi.pruned_frac", static_cast<f64>(ref.pruned) / n, "frac",
       ref.records.size()},
      {"planner.checkpoints", static_cast<f64>(checkpoints), "count", 1},
      {"journal.load_ms", median(load_ms), "ms", load_ms.size()},
      {"journal.merge_ms", median(merge_ms), "ms", merge_ms.size()},
      {"journal.append_us.p50", quantile(append_us, 0.5), "us",
       append_us.size()},
      {"journal.append_us.p99", quantile(append_us, 0.99), "us",
       append_us.size()},
      {"journal.bytes_per_inj", journal_bytes / n, "B", 1},
      {"supervisor.overhead_s", overhead_s, "s", 1},
      {"supervisor.s_per_checkpoint",
       supervised && checkpoints > 0
           ? overhead_s / static_cast<f64>(checkpoints)
           : 0.0,
       "s", 1},
      {"supervisor.worker_launches",
       supervised ? static_cast<f64>(supervised->worker_launches) : 0.0,
       "count", 1},
      {"trace.overhead_frac", median(traced_s) / median(narrow_s) - 1.0,
       "frac", kPairs},
  };
  return m;
}

// --------------------------------------------------------------- output ---

std::string json_number(f64 v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics,
                         bool with_samples) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"";
    if (with_samples) s += ", \"samples\": " + std::to_string(m.samples);
    s += "}";
  }
  return s + "}";
}

struct Args {
  std::string workload;
  u64 seed = 0;
  f64 seconds = 10;
  bool trace = false;
  std::string out;
  std::string gpufi;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return std::nullopt;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (key == "workload") {
        a.workload = value;
      } else if (key == "seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "seconds") {
        a.seconds = std::stod(value);
      } else if (key == "trace") {
        a.trace = value == "1";
      } else if (key == "out") {
        a.out = value;
      } else if (key == "gpufi") {
        a.gpufi = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !have_seed || a.out.empty() || a.gpufi.empty() ||
      !(a.seconds > 0)) {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> --out=<dir> --gpufi=<path>\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args->workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  fs::create_directories(args->out);
  // One process; no more threads or shard workers than the host has cores.
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  Bench b{*spec, args->seed, threads, args->out, args->gpufi, {}, 0};

  Tracer tracer(args->trace);
  u64 inj_to_answer = 0;
  const std::vector<Metric> metrics =
      args->trace ? measure_layers(b, tracer, &inj_to_answer)
                  : measure_end_to_end(b, args->seconds, &inj_to_answer);
  if (metrics.empty()) b.gates.fail("no metrics were measured");
  std::string layers = "{";
  if (args->trace) {
    b.gates.expect(tracer.write_jsonl(args->out + "/spans.jsonl"),
                   "cannot write " + args->out + "/spans.jsonl");
    for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
      if (layers.size() > 1) layers += ", ";
      layers += "\"" + layer + "\": " + json_number(ms);
      std::fprintf(stderr, "self time %-10s %10.1f ms\n", layer.c_str(), ms);
    }
  }
  layers += "}";
  const bool correct = b.gates.failed == 0;
  {
    std::ofstream results(args->out + "/results.json");
    results << "{\"workload\": \"" << spec->name << "\", \"seed\": "
            << args->seed << ", \"trace\": " << (args->trace ? 1 : 0)
            << ", \"threads\": " << threads << ", \"correct\": "
            << (correct ? "true" : "false")
            << ", \"attempted\": " << b.gates.attempted
            << ", \"failed\": " << b.gates.failed
            << ", \"inj_to_answer\": " << inj_to_answer
            << ", \"metrics\": " << metrics_json(metrics, true)
            << ", \"self_ms_by_layer\": " << layers << "}\n";
  }
  for (const Metric& m : metrics) {
    std::printf("%-30s %14s %-5s n=%zu\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<u64>(b.gates.attempted, 1)),
      static_cast<unsigned long long>(b.gates.failed),
      metrics_json(metrics, false).c_str());
  return correct ? 0 : 1;
}
