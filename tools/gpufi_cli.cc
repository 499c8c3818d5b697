// gpufi — command-line front end for the fault-injection framework.
//
// Subcommands:
//   gpufi list                              list built-in workloads
//   gpufi disasm <workload>                 print a kernel's SASS-like listing
//   gpufi golden <workload> [flags]         golden run: profile + timing
//   gpufi campaign <workload> [flags]       run an injection campaign
//   gpufi compare <workload> [flags]        A100-vs-H100 campaign + z-tests
//   gpufi trace <workload> [flags]          trace the first instructions of
//                                           a golden run + opcode histogram
//   gpufi run <workload> [flags]            resilient campaign supervisor:
//                                           forks one shard worker per
//                                           --shard slice into --dir,
//                                           survives worker crashes/hangs
//                                           (lease takeover, backoff retry,
//                                           poison quarantine), auto-merges
//   gpufi merge <journal...> [--csv=]       recombine shard journals into
//                                           the campaign outcome table;
//                                           refuses incomplete/duplicated
//                                           shard sets (exit 2) unless
//                                           --allow-partial
//   gpufi lint [workload] [--json]          static kernel verifier (sa/lint.h)
//                                           over one or all built-in
//                                           workloads; exits 1 on any
//                                           error-severity finding
//   gpufi avf [workload] [--json]           static AVF report: per-group and
//                                           per-bit-position masked-fraction
//                                           lower bounds from bit-liveness
//                                           (sa/bitlive.h), no simulation
//   gpufi status <dir|journal|sidecar>      one-shot progress report over the
//                                           heartbeat sidecars of a running
//                                           (or finished) campaign: per-shard
//                                           %, pooled outcome rates with
//                                           Wilson CIs, ETA. --watch polls.
//
// Flags (campaign/compare/golden):
//   --arch=a100|h100|toy     machine model            (default a100)
//   --mode=iov|ioa|pred|rf|mem                        (default iov)
//   --flip=single|double|random|zero                  (default single)
//   --group=<GROUP>          instruction-group filter (default: all eligible)
//   --injections=<n>                                  (default 1000)
//   --seed=<n>                                        (default 0x5eed)
//   --bit=<n>                fix the flipped bit index
//   --ecc=on|off             force RF+DRAM ECC
//   --csv=<path>             also write the outcome table as CSV
//   --records=<path>         dump one CSV row per injection record
//
// Scale-out flags (campaign):
//   --shard=i/N              run global injection indices i, i+N, i+2N, ...;
//                            N shards partition the campaign bit-exactly
//   --journal=<path>         JSONL journal: one flushed record per completed
//                            injection; rerunning with an existing journal
//                            resumes, skipping completed injections
//   --golden-cache=<dir>     share golden (fault-free) runs across processes
//   --watchdog=<n>           absolute per-injection watchdog budget
//                            (dynamic warp instrs; default 3x golden + 10000)
//   --threads=<n>            worker threads for the injection loop
//                            (0 = hardware concurrency; default 0)
//   --quarantine=<i,j,...>   global injection indices to journal as
//                            Quarantined instead of executing (the
//                            supervisor passes this to relaunched workers)
//   --engine=auto|instrumented
//                            (campaign/run) execution tier. `auto` runs the
//                            hook-free clean tier wherever no hook observes
//                            and strikes each fault natively; `instrumented`
//                            pins the hook-driven reference tier for every
//                            instruction. Journals are byte-identical
//                            either way                   (default auto)
//
// Adaptive planner flags (campaign/run):
//   --stop-half-width=<f>    sequential early stopping: halt at the first
//                            checkpoint where every tracked outcome rate
//                            (Masked/SDC/DUE) has a Wilson CI half-width
//                            <= f (0 < f < 0.5; absolute rate units, so
//                            0.02 means +/-2 percentage points)
//   --stop-confidence=<f>    CI level for the stopping rule (default 0.95)
//   --stop-min=<n>           min injections before a stop can fire
//                            (default 100)
//   --checkpoint-every=<n>   planner decision period K: decisions happen at
//                            global indices K, 2K, ... (default 100)
//   --stratify=group|none    allocate each checkpoint block across
//                            instruction groups (Neyman reallocation from
//                            observed per-group SDC spread) instead of
//                            frequency-proportional sampling; reported
//                            rates then use the post-stratified estimator
//   --plan=<path>            (campaign; normally set by the supervisor)
//                            follow planner decisions published to this
//                            file instead of deciding locally — required
//                            for sharded workers, which never see the full
//                            record prefix. `gpufi run` also passes
//                            --plan-wake-fd=<fd>, the worker's end of its
//                            wake channel: the worker signals each journaled
//                            block on it and parks on it between blocks,
//                            and exits when it closes. Without it a
//                            follower re-reads the plan file every 50 ms.
//
// Supervisor flags (run; campaign flags above pass through to workers):
//   --dir=<path>             campaign directory: shard journals, leases,
//                            supervisor state, worker logs   (required)
//   --shards=<n>             number of shard workers          (default 4)
//   --workers=<n>            max concurrent workers       (default shards)
//   --lease-ttl-ms=<n>       shard lease TTL              (default 15000)
//   --stall-timeout-ms=<n>   SIGKILL a worker whose heartbeat sidecar is
//                            this stale (0 disables; default 30000)
//   --max-shard-attempts=<n> abandon a shard after n consecutive
//                            no-progress crashes              (default 6)
//   --poison-threshold=<n>   quarantine an injection after n consecutive
//                            crashes pinned on it             (default 3)
//   --backoff-base-ms=<n>    relaunch backoff base          (default 500)
//   --backoff-cap-ms=<n>     relaunch backoff cap         (default 10000)
//   --worker-failpoints=<s>  GFI_FAILPOINTS spec for workers (chaos tests)
//   --resume                 continue an existing supervisor state file
//   --out=<path>             (run/merge) write the merged journal (atomic)
//   --allow-partial          (merge) merge despite missing/incomplete
//                            shards
//
// Recovery flags (campaign/compare):
//   --recover=retry|abft     trap-and-retry relaunch; `abft` additionally
//                            swaps in the ABFT-hardened "<workload>_abft"
//                            kernel so SDCs become retryable traps
//   --max-retries=<n>        relaunch budget (default 3 when --recover given)
//   --persist=transient|stuck  whether retries see the fault again
//                            (default transient)
//
// Observability flags:
//   --metrics-out=<file>     (campaign) write the full obs::Registry
//                            snapshot (counters/gauges/latency histograms)
//                            as JSON at campaign end — CI artifact material
//   --heartbeat-ms=<n>       (campaign) heartbeat sidecar flush interval
//                            (default 2000; 0 = after every injection)
//   --watch                  (status) re-render every --interval seconds
//                            until every reporting shard is done
//   --interval=<s>           (status) --watch poll period (default 2)
//
// Static-analysis flags:
//   --prune=dead|dead-bits|none
//                            (campaign/compare) skip simulating IOV/PRED
//                            sites whose destination is statically dead;
//                            `dead-bits` additionally credits single/double
//                            flips landing only on statically dead *bits*
//                            of partially-dead sites (sa/bitlive.h).
//                            Records are credited analytically and outcome
//                            tables stay bit-identical (default none)
//   --json                   (lint/avf) machine-readable findings
//   --sarif=<file>           (lint) additionally write findings as SARIF
//                            2.1.0 (GitHub code-scanning ingestible)
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compare.h"
#include "analysis/report.h"
#include "arch/arch.h"
#include "cli_args.h"
#include "common/jsonl.h"
#include "common/simd.h"
#include "common/table.h"
#include "fi/campaign.h"
#include "fi/golden_cache.h"
#include "fi/journal.h"
#include "fi/planner.h"
#include "fi/supervisor.h"
#include "obs/registry.h"
#include "obs/status.h"
#include "harden/swift.h"
#include "recover/abft.h"
#include "analysis/static_bound.h"
#include "sa/lint.h"
#include "sassim/simulator.h"
#include "sassim/tracer.h"
#include "workloads/workload.h"

namespace {

using namespace gfi;

/// Bumped per stacked PR; `gpufi version` pairs it with the compiled SIMD
/// backend so bug reports pin down which execution path produced a
/// journal.
constexpr const char* kVersion = "0.11.0";

struct Options {
  std::string command;
  std::string workload;
  std::vector<std::string> positionals;  ///< extra non-flag args (merge)
  std::string arch = "a100";
  std::string mode = "iov";
  std::string flip = "single";
  std::optional<std::string> group;
  std::size_t injections = 1000;
  u64 seed = 0x5eed;
  std::optional<u32> bit;
  std::optional<bool> ecc_on;
  std::optional<std::string> csv;
  std::optional<std::string> records;
  u32 shard_index = 0;
  u32 shard_count = 1;
  std::optional<std::string> journal;
  std::optional<std::string> golden_cache;
  std::optional<u64> watchdog;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  std::optional<std::string> recover;  ///< "retry" or "abft"
  std::optional<u32> max_retries;
  std::string persist = "transient";
  std::string prune = "none";
  std::string engine = "auto";  ///< --engine tier pin (campaign/run)
  bool json = false;
  std::optional<std::string> sarif;  ///< --sarif=<file> (lint)
  std::optional<std::string> metrics_out;
  u64 heartbeat_ms = 2000;
  bool watch = false;
  u64 interval_s = 2;  ///< --watch poll period
  std::vector<u64> quarantine;  ///< --quarantine=i,j,... (campaign)
  // Adaptive planner knobs (campaign/run); defaults mirror fi::PlannerConfig.
  std::optional<f64> stop_half_width;
  std::optional<f64> stop_confidence;
  std::optional<u64> stop_min;
  std::optional<u64> checkpoint_every;
  std::string stratify = "none";
  std::optional<std::string> plan;  ///< --plan= follow-mode file (campaign)
  std::optional<int> plan_wake_fd;  ///< --plan-wake-fd= (supervisor-owned)
  bool allow_partial = false;   ///< --allow-partial (merge)
  std::optional<std::string> out;  ///< --out merged-journal path (run/merge)
  // `run` supervisor knobs (defaults mirror fi::SupervisorConfig).
  std::string dir;
  u32 shards = 4;
  u32 workers = 0;  ///< 0 = one worker per shard
  u64 lease_ttl_ms = 15000;
  u64 stall_timeout_ms = 30000;
  u32 max_shard_attempts = 6;
  u32 poison_threshold = 3;
  u64 backoff_base_ms = 500;
  u64 backoff_cap_ms = 10000;
  std::string worker_failpoints;
  bool resume = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: gpufi "
               "<list|disasm|golden|campaign|run|compare|merge|lint|avf|"
               "status|version> "
               "[workload|journal|dir...] [--flags]\n(see the header of "
               "tools/gpufi_cli.cc for the flag reference)\n");
  return 2;
}

int cmd_version() {
  std::printf("gpufi %s (simd=%s)\n", kVersion, simd::backend());
  return 0;
}

bool parse_flag(const std::string& arg, const std::string& name,
                std::string* out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

std::optional<Options> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options options;
  options.command = argv[1];
  int position = 2;
  while (position < argc && argv[position][0] != '-') {
    if (options.workload.empty()) {
      options.workload = argv[position];
    } else {
      options.positionals.emplace_back(argv[position]);
    }
    ++position;
  }
  for (; position < argc; ++position) {
    const std::string arg = argv[position];
    std::string value;
    if (parse_flag(arg, "arch", &options.arch)) continue;
    if (parse_flag(arg, "mode", &options.mode)) continue;
    if (parse_flag(arg, "flip", &options.flip)) continue;
    if (parse_flag(arg, "group", &value)) {
      options.group = value;
      continue;
    }
    if (parse_flag(arg, "injections", &value)) {
      auto parsed = cli::parse_u64(value);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "bad --injections '%s' (want a positive integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.injections = static_cast<std::size_t>(*parsed);
      continue;
    }
    if (parse_flag(arg, "seed", &value)) {
      auto parsed = cli::parse_u64(value, /*base=*/0);
      if (!parsed) {
        std::fprintf(stderr, "bad --seed '%s' (want an integer, 0x hex ok)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.seed = *parsed;
      continue;
    }
    if (parse_flag(arg, "bit", &value)) {
      auto parsed = cli::parse_u32(value);
      if (!parsed) {
        std::fprintf(stderr, "bad --bit '%s' (want a non-negative integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.bit = *parsed;
      continue;
    }
    if (parse_flag(arg, "ecc", &value)) {
      if (value != "on" && value != "off") {
        std::fprintf(stderr, "bad --ecc '%s' (want on|off)\n", value.c_str());
        return std::nullopt;
      }
      options.ecc_on = value == "on";
      continue;
    }
    if (parse_flag(arg, "csv", &value)) {
      options.csv = value;
      continue;
    }
    if (parse_flag(arg, "records", &value)) {
      options.records = value;
      continue;
    }
    if (parse_flag(arg, "shard", &value)) {
      auto shard = cli::parse_shard(value);
      if (!shard) {
        std::fprintf(stderr,
                     "bad --shard '%s' (want i/N with 0 <= i < N)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.shard_index = shard->index;
      options.shard_count = shard->count;
      continue;
    }
    if (parse_flag(arg, "journal", &value)) {
      options.journal = value;
      continue;
    }
    if (parse_flag(arg, "golden-cache", &value)) {
      options.golden_cache = value;
      continue;
    }
    if (parse_flag(arg, "watchdog", &value)) {
      auto parsed = cli::parse_u64(value);
      if (!parsed) {
        std::fprintf(stderr, "bad --watchdog '%s' (want an integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.watchdog = *parsed;
      continue;
    }
    if (parse_flag(arg, "threads", &value)) {
      auto parsed = cli::parse_u64(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "bad --threads '%s' (want a non-negative integer, "
                     "0 = hardware concurrency)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.threads = static_cast<std::size_t>(*parsed);
      continue;
    }
    if (parse_flag(arg, "recover", &value)) {
      if (value != "retry" && value != "abft") {
        std::fprintf(stderr, "bad --recover '%s' (want retry|abft)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.recover = value;
      continue;
    }
    if (parse_flag(arg, "max-retries", &value)) {
      auto parsed = cli::parse_u32(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "bad --max-retries '%s' (want a non-negative integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.max_retries = *parsed;
      continue;
    }
    if (parse_flag(arg, "persist", &value)) {
      if (value != "transient" && value != "stuck") {
        std::fprintf(stderr, "bad --persist '%s' (want transient|stuck)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.persist = value;
      continue;
    }
    if (parse_flag(arg, "prune", &value)) {
      if (value != "dead" && value != "dead-bits" && value != "none") {
        std::fprintf(stderr, "bad --prune '%s' (want dead|dead-bits|none)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.prune = value;
      continue;
    }
    if (parse_flag(arg, "engine", &value)) {
      if (value != "auto" && value != "instrumented") {
        std::fprintf(stderr, "bad --engine '%s' (want auto|instrumented)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.engine = value;
      continue;
    }
    if (arg == "--json") {
      options.json = true;
      continue;
    }
    if (parse_flag(arg, "sarif", &value)) {
      options.sarif = value;
      continue;
    }
    if (parse_flag(arg, "metrics-out", &value)) {
      options.metrics_out = value;
      continue;
    }
    if (parse_flag(arg, "heartbeat-ms", &value)) {
      auto parsed = cli::parse_u64(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "bad --heartbeat-ms '%s' (want a non-negative integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.heartbeat_ms = *parsed;
      continue;
    }
    if (arg == "--watch") {
      options.watch = true;
      continue;
    }
    if (parse_flag(arg, "interval", &value)) {
      auto parsed = cli::parse_u64(value);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "bad --interval '%s' (want a positive integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.interval_s = *parsed;
      continue;
    }
    if (parse_flag(arg, "quarantine", &value)) {
      auto parsed = cli::parse_u64_list(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "bad --quarantine '%s' (want comma-separated indices)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.quarantine = std::move(*parsed);
      continue;
    }
    if (arg == "--allow-partial") {
      options.allow_partial = true;
      continue;
    }
    if (parse_flag(arg, "out", &value)) {
      options.out = value;
      continue;
    }
    if (parse_flag(arg, "dir", &value)) {
      options.dir = value;
      continue;
    }
    if (parse_flag(arg, "shards", &value)) {
      auto parsed = cli::parse_u32(value);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "bad --shards '%s' (want a positive integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.shards = *parsed;
      continue;
    }
    if (parse_flag(arg, "workers", &value)) {
      auto parsed = cli::parse_u32(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "bad --workers '%s' (want a non-negative integer, "
                     "0 = one per shard)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.workers = *parsed;
      continue;
    }
    // The supervisor's millisecond knobs share one strict-u64 shape.
    const struct {
      const char* name;
      u64* slot;
      bool positive;
    } u64_knobs[] = {
        {"lease-ttl-ms", &options.lease_ttl_ms, true},
        {"stall-timeout-ms", &options.stall_timeout_ms, false},
        {"backoff-base-ms", &options.backoff_base_ms, false},
        {"backoff-cap-ms", &options.backoff_cap_ms, false},
    };
    bool matched = false;
    bool bad = false;
    for (const auto& knob : u64_knobs) {
      if (!parse_flag(arg, knob.name, &value)) continue;
      matched = true;
      auto parsed = cli::parse_u64(value);
      if (!parsed || (knob.positive && *parsed == 0)) {
        std::fprintf(stderr, "bad --%s '%s' (want a%s integer)\n", knob.name,
                     value.c_str(),
                     knob.positive ? " positive" : " non-negative");
        bad = true;
        break;
      }
      *knob.slot = *parsed;
      break;
    }
    if (bad) return std::nullopt;
    if (matched) continue;
    const struct {
      const char* name;
      u32* slot;
    } u32_knobs[] = {
        {"max-shard-attempts", &options.max_shard_attempts},
        {"poison-threshold", &options.poison_threshold},
    };
    for (const auto& knob : u32_knobs) {
      if (!parse_flag(arg, knob.name, &value)) continue;
      matched = true;
      auto parsed = cli::parse_u32(value);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "bad --%s '%s' (want a positive integer)\n",
                     knob.name, value.c_str());
        bad = true;
        break;
      }
      *knob.slot = *parsed;
      break;
    }
    if (bad) return std::nullopt;
    if (matched) continue;
    if (parse_flag(arg, "worker-failpoints", &options.worker_failpoints)) {
      continue;
    }
    if (arg == "--resume") {
      options.resume = true;
      continue;
    }
    if (parse_flag(arg, "stop-half-width", &value)) {
      auto parsed = cli::parse_f64(value);
      if (!parsed || *parsed <= 0.0 || *parsed >= 0.5) {
        std::fprintf(stderr,
                     "bad --stop-half-width '%s' (want a rate in (0, 0.5), "
                     "e.g. 0.02 for +/-2 percentage points)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.stop_half_width = *parsed;
      continue;
    }
    if (parse_flag(arg, "stop-confidence", &value)) {
      auto parsed = cli::parse_f64(value);
      if (!parsed || *parsed <= 0.0 || *parsed >= 1.0) {
        std::fprintf(stderr,
                     "bad --stop-confidence '%s' (want a level in (0, 1))\n",
                     value.c_str());
        return std::nullopt;
      }
      options.stop_confidence = *parsed;
      continue;
    }
    if (parse_flag(arg, "stop-min", &value)) {
      auto parsed = cli::parse_u64(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "bad --stop-min '%s' (want a non-negative integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.stop_min = *parsed;
      continue;
    }
    if (parse_flag(arg, "checkpoint-every", &value)) {
      auto parsed = cli::parse_u64(value);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr,
                     "bad --checkpoint-every '%s' (want a positive integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.checkpoint_every = *parsed;
      continue;
    }
    if (parse_flag(arg, "stratify", &value)) {
      if (value != "group" && value != "none") {
        std::fprintf(stderr, "bad --stratify '%s' (want group|none)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.stratify = value;
      continue;
    }
    if (parse_flag(arg, "plan", &value)) {
      options.plan = value;
      continue;
    }
    if (parse_flag(arg, "plan-wake-fd", &value)) {
      auto parsed = cli::parse_u32(value);
      if (!parsed || *parsed > static_cast<u32>(INT_MAX)) {
        std::fprintf(stderr, "bad --plan-wake-fd '%s' (want a descriptor)\n",
                     value.c_str());
        return std::nullopt;
      }
      options.plan_wake_fd = static_cast<int>(*parsed);
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
    return std::nullopt;
  }
  return options;
}

std::optional<sim::MachineConfig> machine_for(const Options& options) {
  sim::MachineConfig config;
  if (options.arch == "a100") config = arch::a100();
  else if (options.arch == "h100") config = arch::h100();
  else if (options.arch == "toy") config = arch::toy();
  else {
    std::fprintf(stderr, "unknown arch '%s'\n", options.arch.c_str());
    return std::nullopt;
  }
  if (options.ecc_on) {
    const auto mode =
        *options.ecc_on ? ecc::EccMode::kSecded : ecc::EccMode::kDisabled;
    config.rf_ecc = mode;
    config.dram_ecc = mode;
  }
  return config;
}

std::optional<fi::InjectionMode> mode_for(const std::string& name) {
  if (name == "iov") return fi::InjectionMode::kIov;
  if (name == "ioa") return fi::InjectionMode::kIoa;
  if (name == "pred") return fi::InjectionMode::kPred;
  if (name == "rf") return fi::InjectionMode::kRf;
  if (name == "mem") return fi::InjectionMode::kMemory;
  std::fprintf(stderr, "unknown mode '%s'\n", name.c_str());
  return std::nullopt;
}

std::optional<fi::BitFlipModel> flip_for(const std::string& name) {
  if (name == "single") return fi::BitFlipModel::kSingle;
  if (name == "double") return fi::BitFlipModel::kDouble;
  if (name == "random") return fi::BitFlipModel::kRandomValue;
  if (name == "zero") return fi::BitFlipModel::kZeroValue;
  std::fprintf(stderr, "unknown flip model '%s'\n", name.c_str());
  return std::nullopt;
}

std::optional<sim::InstrGroup> group_for(const std::string& name) {
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    if (name == sim::group_name(group)) return group;
  }
  std::fprintf(stderr, "unknown group '%s' (use names from R-T2, e.g. FP32)\n",
               name.c_str());
  return std::nullopt;
}

std::optional<fi::CampaignConfig> campaign_config(const Options& options) {
  auto machine = machine_for(options);
  auto mode = mode_for(options.mode);
  auto flip = flip_for(options.flip);
  if (!machine || !mode || !flip) return std::nullopt;
  const fi::FaultPersistence persistence =
      options.persist == "stuck" ? fi::FaultPersistence::kStuckAt
                                 : fi::FaultPersistence::kTransient;
  fi::CampaignConfig config;
  config.workload = options.workload;
  config.engine = options.engine == "instrumented"
                      ? sim::EngineTier::kInstrumented
                      : sim::EngineTier::kAuto;
  config.machine = *machine;
  config.model = {*mode, *flip, persistence};
  if (options.recover) {
    // Both strategies relaunch from checkpoint; `abft` additionally swaps in
    // the checksum-carrying kernel so SDCs surface as retryable traps.
    config.max_retries = options.max_retries.value_or(3);
    if (*options.recover == "abft" &&
        config.workload.rfind("_abft") == std::string::npos) {
      config.workload += "_abft";
    }
  } else if (options.max_retries) {
    config.max_retries = *options.max_retries;
  }
  config.num_injections = options.injections;
  config.seed = options.seed;
  config.fixed_bit = options.bit;
  config.shard_index = options.shard_index;
  config.shard_count = options.shard_count;
  config.journal_path = options.journal;
  config.watchdog_instrs = options.watchdog;
  config.threads = options.threads;
  config.heartbeat_interval_ms = options.heartbeat_ms;
  config.prune_dead_sites = options.prune == "dead" ||
                            options.prune == "dead-bits";
  config.prune_dead_bits = options.prune == "dead-bits";
  config.quarantine = options.quarantine;
  if (options.stop_half_width) {
    config.planner.stop.target_half_width = *options.stop_half_width;
  }
  if (options.stop_confidence) {
    config.planner.stop.confidence = *options.stop_confidence;
  }
  if (options.stop_min) {
    config.planner.stop.min_samples =
        static_cast<std::size_t>(*options.stop_min);
  }
  if (options.checkpoint_every) {
    config.planner.checkpoint_every = *options.checkpoint_every;
  }
  config.planner.stratify = options.stratify == "group";
  config.planner.plan_path = options.plan;
  config.planner.wake_fd = options.plan_wake_fd.value_or(-1);
  if (options.golden_cache) {
    fi::GoldenCache::instance().set_directory(*options.golden_cache);
  }
  if (options.group) {
    auto group = group_for(*options.group);
    if (!group) return std::nullopt;
    config.group = group;
  }
  return config;
}

int cmd_list() {
  for (const std::string& name : wl::workload_names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmd_disasm(const Options& options) {
  auto workload = wl::make_workload(options.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 1;
  }
  std::printf("%s", workload->program().disassemble().c_str());
  return 0;
}

int cmd_golden(const Options& options) {
  auto config = campaign_config(options);
  if (!config) return 2;
  auto golden = fi::Campaign::golden_run(*config);
  if (!golden.is_ok()) {
    std::fprintf(stderr, "%s\n", golden.status().to_string().c_str());
    return 1;
  }
  sim::LaunchResult timing;
  timing.cycles = golden.value().cycles;
  std::printf("%s on %s: %llu warp instrs, %llu cycles, %.2f us\n",
              options.workload.c_str(), config->machine.name.c_str(),
              static_cast<unsigned long long>(golden.value().dyn_instrs),
              static_cast<unsigned long long>(golden.value().cycles),
              timing.time_us(config->machine));
  Table table("Dynamic instruction mix");
  table.set_header(analysis::profile_header());
  table.add_row(analysis::profile_row(options.workload,
                                      golden.value().profile));
  table.print();
  return 0;
}

int cmd_campaign(const Options& options) {
  auto config = campaign_config(options);
  if (!config) return 2;
  // A per-invocation registry keeps the --metrics-out snapshot scoped to
  // exactly this campaign (the process-global registry would accumulate
  // across compare's two runs).
  obs::Registry metrics;
  // Stamp the compiled execution backend into the snapshot so archived
  // --metrics-out artifacts say which SIMD path produced the campaign.
  metrics.counter(std::string("engine.simd.") + simd::backend()).inc();
  config->metrics = &metrics;
  auto result = fi::Campaign::run(*config);
  if (!result.is_ok()) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    return 1;
  }
  std::string title = "Campaign: " + options.workload + " on " +
                      config->machine.name + ", " +
                      std::string(fi::to_string(config->model.mode)) + "/" +
                      fi::to_string(config->model.flip);
  if (config->shard_count > 1) {
    title += " [shard " + std::to_string(config->shard_index) + "/" +
             std::to_string(config->shard_count) + "]";
  }
  if (result.value().resumed > 0) {
    std::printf("resumed %zu of %zu injections from %s\n",
                result.value().resumed, result.value().records.size(),
                config->journal_path->c_str());
  }
  if (result.value().pruned > 0) {
    std::printf("pruned %llu of %zu injections (statically dead sites/bits, "
                "credited analytically)\n",
                static_cast<unsigned long long>(result.value().pruned),
                result.value().records.size());
  }
  Table table(title);
  table.set_header(analysis::outcome_header());
  table.add_row(analysis::outcome_row(options.workload, result.value()));
  table.print();
  std::printf("uncorrected failure rate (SDC+DUE+Hang): %s\n",
              Table::pct(analysis::uncorrected_failure_rate(result.value()))
                  .c_str());
  if (config->planner.active()) {
    if (config->planner.stopping()) {
      if (result.value().effective_injections < config->num_injections) {
        std::printf(
            "planner: stopped at %llu of %zu injections — every tracked "
            "outcome CI inside the ±%.2f%% target\n",
            static_cast<unsigned long long>(
                result.value().effective_injections),
            config->num_injections,
            config->planner.stop.target_half_width * 100.0);
      } else {
        std::printf(
            "planner: budget exhausted at %zu injections before the ±%.2f%% "
            "target was met everywhere\n",
            config->num_injections,
            config->planner.stop.target_half_width * 100.0);
      }
    }
    if (config->planner.stratify) {
      Table strat("Post-stratified rates (Neyman group allocation)");
      strat.set_header({"outcome", "pooled", "post-stratified"});
      for (fi::Outcome outcome : fi::planner_tracked_outcomes()) {
        strat.add_row({fi::to_string(outcome),
                       analysis::rate_cell(result.value(), outcome),
                       analysis::poststratified_cell(
                           result.value(), outcome,
                           config->planner.stop.confidence)});
      }
      strat.print();
    }
  }
  if (config->max_retries > 0) {
    Table recovery(std::string("Recovery (max ") +
                   std::to_string(config->max_retries) + " retries, " +
                   fi::to_string(config->model.persistence) + " faults)");
    recovery.set_header(analysis::recovery_header());
    recovery.add_row(analysis::recovery_row(config->workload, result.value()));
    recovery.print();
  }
  if (options.csv) (void)table.write_csv(*options.csv);
  if (options.records) {
    (void)analysis::write_records_csv(result.value(), *options.records);
  }
  if (options.metrics_out) {
    // Replaced whole: a crash mid-write must never leave a torn JSON
    // snapshot for downstream tooling to choke on.
    if (Status written = jsonl::replace_file(*options.metrics_out,
                                             metrics.snapshot().to_json());
        !written.is_ok()) {
      std::fprintf(stderr, "cannot write metrics snapshot: %s\n",
                   written.message().c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n",
                options.metrics_out->c_str());
  }
  return 0;
}

/// Outcome display names in fi::Outcome index order, for the status report.
std::vector<std::string> outcome_names() {
  std::vector<std::string> names;
  names.reserve(fi::kOutcomeCount);
  for (int o = 0; o < fi::kOutcomeCount; ++o) {
    names.emplace_back(fi::to_string(static_cast<fi::Outcome>(o)));
  }
  return names;
}

/// Renders CI convergence toward the planner's stop target, pooled over the
/// reporting shards. Silent for planner-off campaigns (no sidecar carries a
/// stop target). The sidecar does not record the stop confidence, so the
/// display uses the 95% default; `gpufi campaign` prints the exact verdict.
void print_planner_status(const std::vector<obs::ShardStatus>& shards) {
  f64 target = 0.0;
  u64 done = 0;
  std::vector<u64> counts;
  for (const obs::ShardStatus& shard : shards) {
    target = std::max(target, shard.state.stop_half_width);
    done += shard.state.done;
    if (counts.size() < shard.state.outcome_counts.size()) {
      counts.resize(shard.state.outcome_counts.size(), 0);
    }
    for (std::size_t i = 0; i < shard.state.outcome_counts.size(); ++i) {
      counts[i] += shard.state.outcome_counts[i];
    }
  }
  if (target <= 0.0) return;
  std::string line = "planner: target ±";
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%.2f%%", target * 100.0);
  line += buffer;
  bool converged = done > 0;
  for (fi::Outcome outcome : fi::planner_tracked_outcomes()) {
    const auto index = static_cast<std::size_t>(outcome);
    const u64 successes = index < counts.size() ? counts[index] : 0;
    const auto ci = stats::wilson_interval(successes, done, 0.95);
    const f64 half_width = done > 0 ? ci.half_width() : 1.0;
    converged = converged && half_width <= target;
    std::snprintf(buffer, sizeof(buffer), " | %s %.2f%% ±%.2f",
                  fi::to_string(outcome),
                  done > 0 ? 100.0 * static_cast<f64>(successes) /
                                 static_cast<f64>(done)
                           : 0.0,
                  half_width * 100.0);
    line += buffer;
  }
  std::snprintf(buffer, sizeof(buffer), " (n=%llu, %s)\n",
                static_cast<unsigned long long>(done),
                converged ? "converged" : "converging");
  line += buffer;
  std::printf("%s", line.c_str());
}

int cmd_status(const Options& options) {
  const std::vector<std::string> names = outcome_names();
  // One line of engine provenance above the shard table (not repeated per
  // --watch refresh).
  std::printf("engine: gpufi %s simd=%s\n", kVersion, simd::backend());
  while (true) {
    auto shards = obs::load_status(options.workload);
    if (!shards.is_ok()) {
      std::fprintf(stderr, "%s\n", shards.status().to_string().c_str());
      return 1;
    }
    std::printf("%s", obs::render_status(shards.value(), names).c_str());
    print_planner_status(shards.value());
    if (!options.watch) return 0;
    bool all_done = true;
    for (const obs::ShardStatus& shard : shards.value()) {
      all_done = all_done && shard.state.finished;
    }
    if (all_done) return 0;
    std::printf("\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(options.interval_s));
  }
}

int cmd_compare(Options options) {
  options.arch = "a100";
  auto a_config = campaign_config(options);
  options.arch = "h100";
  auto h_config = campaign_config(options);
  if (!a_config || !h_config) return 2;
  auto a = fi::Campaign::run(*a_config);
  auto h = fi::Campaign::run(*h_config);
  if (!a.is_ok() || !h.is_ok()) {
    std::fprintf(stderr, "%s\n",
                 (!a.is_ok() ? a.status() : h.status()).to_string().c_str());
    return 1;
  }
  Table table("A100 vs H100: " + options.workload);
  auto header = analysis::outcome_header();
  header[0] = "arch";
  table.set_header(header);
  table.add_row(analysis::outcome_row("A100", a.value()));
  table.add_row(analysis::outcome_row("H100", h.value()));
  table.print();

  Table tests("Two-proportion z-tests (A100 vs H100)");
  tests.set_header({"outcome", "A100", "H100", "z", "p-value", "verdict"});
  for (fi::Outcome outcome :
       {fi::Outcome::kSdc, fi::Outcome::kDue, fi::Outcome::kMasked}) {
    const auto test =
        analysis::compare_outcome(a.value(), h.value(), outcome);
    tests.add_row({fi::to_string(outcome), Table::pct(test.p1),
                   Table::pct(test.p2), Table::fmt(test.z, 2),
                   Table::fmt(test.p_value, 4),
                   test.significant() ? "DIFFERENT" : "within noise"});
  }
  tests.print();
  return 0;
}

/// Prints the standard campaign outcome table for a merged journal and
/// handles --csv/--records/--out. Shared by `merge` and `run`.
int report_merged(const fi::MergedCampaign& merged, const Options& options) {
  if (merged.missing > 0) {
    std::printf("partial merge: %llu of %llu injections missing\n",
                static_cast<unsigned long long>(merged.missing),
                static_cast<unsigned long long>(merged.header.num_injections));
  }
  // Shell result so the standard reporting helpers apply; the merged table
  // is bit-identical to the one an unsharded campaign would print.
  fi::CampaignResult result;
  result.config.workload = merged.header.workload;
  result.records = merged.records;
  result.outcome_counts = merged.outcome_counts;
  Table table("Campaign: " + merged.header.workload + " on " +
              merged.header.arch + ", " + merged.header.mode + "/" +
              merged.header.flip);
  table.set_header(analysis::outcome_header());
  table.add_row(analysis::outcome_row(merged.header.workload, result));
  table.print();
  std::printf("uncorrected failure rate (SDC+DUE+Hang): %s\n",
              Table::pct(analysis::uncorrected_failure_rate(result)).c_str());
  if (options.csv) (void)table.write_csv(*options.csv);
  if (options.records) {
    (void)analysis::write_records_csv(result, *options.records);
  }
  if (options.out) {
    if (Status written = fi::write_merged_journal(*options.out, merged);
        !written.is_ok()) {
      std::fprintf(stderr, "%s\n", written.to_string().c_str());
      return 1;
    }
    std::printf("merged journal written to %s\n", options.out->c_str());
  }
  return 0;
}

int cmd_merge(const Options& options) {
  // The first journal path lands in the workload slot of the parser.
  std::vector<std::string> paths;
  if (!options.workload.empty()) paths.push_back(options.workload);
  paths.insert(paths.end(), options.positionals.begin(),
               options.positionals.end());
  if (paths.empty()) return usage();
  fi::MergeOptions merge_options;
  merge_options.allow_partial = options.allow_partial;
  auto merged = fi::merge_journals(paths, merge_options);
  if (!merged.is_ok()) {
    std::fprintf(stderr, "%s\n", merged.status().to_string().c_str());
    // Incomplete/duplicated shard sets are a distinct, scriptable failure:
    // exit 2 so campaign drivers can tell "re-run some shards" apart from
    // "these journals are corrupt" (exit 1).
    return merged.status().code() == StatusCode::kFailedPrecondition ? 2 : 1;
  }
  return report_merged(merged.value(), options);
}

/// Resolves the running gpufi binary for `run` worker re-exec. /proc is
/// Linux-specific; argv[0] is the portable fallback.
std::string self_exe(const char* argv0) {
  char buffer[4096];
  const ssize_t length =
      ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (length > 0) {
    buffer[length] = '\0';
    return std::string(buffer);
  }
  return argv0 != nullptr ? std::string(argv0) : std::string("gpufi");
}

int cmd_run(const Options& options, const char* argv0) {
  if (options.dir.empty()) {
    std::fprintf(stderr,
                 "gpufi run requires --dir=<campaign directory> (shard "
                 "journals, leases, and supervisor state live there)\n");
    return 2;
  }
  fi::SupervisorConfig config;
  config.exe = self_exe(argv0);
  config.workload = options.workload;
  config.dir = options.dir;
  config.shards = options.shards;
  config.max_workers = options.workers;
  config.num_injections = options.injections;
  config.seed = options.seed;
  config.lease_ttl_ms = options.lease_ttl_ms;
  config.stall_timeout_ms = options.stall_timeout_ms;
  config.worker_heartbeat_ms = options.heartbeat_ms;
  config.max_shard_attempts = options.max_shard_attempts;
  config.poison_threshold = options.poison_threshold;
  config.backoff_base_ms = options.backoff_base_ms;
  config.backoff_cap_ms = options.backoff_cap_ms;
  config.worker_failpoints = options.worker_failpoints;
  config.resume = options.resume;
  // Campaign flags forwarded verbatim to every worker. Defaults are passed
  // explicitly so the worker command line fully determines the campaign —
  // a shard journal is replayable from its flags alone.
  auto forward = [&](const std::string& flag, const std::string& value) {
    config.worker_flags.push_back("--" + flag + "=" + value);
  };
  auto exact = [](f64 value) {  // round-trips through the worker's parser
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return std::string(buffer);
  };
  forward("arch", options.arch);
  forward("mode", options.mode);
  forward("flip", options.flip);
  forward("injections", std::to_string(options.injections));
  forward("seed", std::to_string(options.seed));
  forward("persist", options.persist);
  if (options.group) forward("group", *options.group);
  if (options.bit) forward("bit", std::to_string(*options.bit));
  if (options.ecc_on) forward("ecc", *options.ecc_on ? "on" : "off");
  if (options.recover) forward("recover", *options.recover);
  if (options.max_retries) {
    forward("max-retries", std::to_string(*options.max_retries));
  }
  if (options.prune != "none") forward("prune", options.prune);
  if (options.engine != "auto") forward("engine", options.engine);
  if (options.watchdog) forward("watchdog", std::to_string(*options.watchdog));
  if (options.golden_cache) forward("golden-cache", *options.golden_cache);
  // Planner flags are forwarded so worker journal headers match the
  // unsharded adaptive campaign's byte-for-byte; the supervisor itself
  // appends the --plan= flag that puts workers in follow mode.
  if (options.plan || options.plan_wake_fd) {
    std::fprintf(stderr,
                 "gpufi run: --plan and --plan-wake-fd are supervisor-owned "
                 "(workers are pointed at <dir>/plan.jsonl automatically)\n");
    return 2;
  }
  if (options.stop_half_width) {
    forward("stop-half-width", exact(*options.stop_half_width));
  }
  if (options.stop_confidence) {
    forward("stop-confidence", exact(*options.stop_confidence));
  }
  if (options.stop_min) forward("stop-min", std::to_string(*options.stop_min));
  if (options.checkpoint_every) {
    forward("checkpoint-every", std::to_string(*options.checkpoint_every));
  }
  if (options.stratify != "none") forward("stratify", options.stratify);
  if (options.stop_half_width || options.stratify != "none") {
    // The supervisor needs the unsharded campaign mirror to compute planner
    // decisions itself (it is the only party seeing the full prefix).
    auto mirror = campaign_config(options);
    if (!mirror) return 2;
    mirror->journal_path.reset();
    config.campaign = *mirror;
  }

  auto ran = fi::Supervisor::run(config);
  if (!ran.is_ok()) {
    std::fprintf(stderr, "%s\n", ran.status().to_string().c_str());
    return 1;
  }
  const fi::SupervisorResult& result = ran.value();
  std::printf(
      "supervisor: %llu worker launch(es), %llu crash(es), %llu stall "
      "kill(s), %llu lease takeover(s), %llu journal byte(s) read\n",
      static_cast<unsigned long long>(result.worker_launches),
      static_cast<unsigned long long>(result.crashes),
      static_cast<unsigned long long>(result.stall_kills),
      static_cast<unsigned long long>(result.takeovers),
      static_cast<unsigned long long>(result.journal_bytes_read));
  if (result.plan_stop > 0) {
    std::printf("planner: stopped at %llu of %zu injections\n",
                static_cast<unsigned long long>(result.plan_stop),
                options.injections);
  }
  if (!result.quarantined.empty()) {
    std::string list;
    for (u64 index : result.quarantined) {
      if (!list.empty()) list += ",";
      list += std::to_string(index);
    }
    std::printf("quarantined injection(s): %s\n", list.c_str());
  }
  if (result.shards_failed > 0) {
    std::fprintf(stderr,
                 "%u shard(s) abandoned after repeated no-progress crashes; "
                 "see %s and the shard-*.log files\n",
                 result.shards_failed,
                 fi::Supervisor::state_path(options.dir).c_str());
    return 1;
  }
  return report_merged(result.merged, options);
}

int cmd_lint(const Options& options) {
  std::vector<std::string> names;
  if (!options.workload.empty()) {
    names.push_back(options.workload);
  } else {
    names = wl::workload_names();
  }
  bool any_errors = false;
  std::string json = "[";
  std::vector<sa::LintReport> reports;
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto workload = wl::make_workload(names[i]);
    if (!workload) {
      std::fprintf(stderr, "unknown workload '%s'\n", names[i].c_str());
      return 2;
    }
    const sa::LintReport report = sa::lint(workload->program());
    any_errors = any_errors || report.has_errors();
    if (options.sarif) reports.push_back(report);
    if (options.json) {
      if (i > 0) json += ",\n ";
      json += sa::to_json(report);
      continue;
    }
    std::printf("%s: %d error(s), %d warning(s), %d info\n",
                report.program.c_str(), report.count(sa::Severity::kError),
                report.count(sa::Severity::kWarning),
                report.count(sa::Severity::kInfo));
    for (const sa::LintFinding& finding : report.findings) {
      std::printf("  [%s] pc %u %s: %s\n",
                  sa::severity_name(finding.severity), finding.pc,
                  sa::check_name(finding.check), finding.message.c_str());
    }
  }
  if (options.json) std::printf("%s]\n", json.c_str());
  if (options.sarif) {
    std::ofstream out(*options.sarif, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write SARIF to '%s'\n",
                   options.sarif->c_str());
      return 2;
    }
    out << sa::to_sarif(reports) << "\n";
  }
  return any_errors ? 1 : 0;
}

int cmd_avf(const Options& options) {
  std::vector<std::string> names;
  if (!options.workload.empty()) {
    names.push_back(options.workload);
  } else {
    names = wl::workload_names();
  }
  std::string json = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    Options local = options;
    local.workload = names[i];
    auto config = campaign_config(local);
    if (!config) return 2;
    auto map = fi::Campaign::build_prune_map(*config);
    if (!map.is_ok()) {
      std::fprintf(stderr, "%s\n", map.status().to_string().c_str());
      return 1;
    }
    const analysis::AvfReport report =
        analysis::avf_report(map.value(), config->model.mode);
    if (options.json) {
      if (i > 0) json += ",\n ";
      json += analysis::to_json(report, names[i], config->machine.name);
      continue;
    }
    Table table("Static AVF bounds: " + names[i] + " on " +
                config->machine.name + ", " +
                std::string(fi::to_string(config->model.mode)));
    table.set_header({"group", "eligible", "dead", "partial", "inert",
                      "masked_lb", "bit_masked_lb"});
    auto add_bound_row = [&](const std::string& label,
                             const analysis::StaticBound& bound) {
      table.add_row({label, std::to_string(bound.eligible),
                     std::to_string(bound.dead),
                     std::to_string(bound.partial),
                     std::to_string(bound.inert),
                     Table::pct(bound.masked_lower_bound()),
                     Table::pct(bound.bit_masked_lower_bound())});
    };
    for (const analysis::AvfReport::GroupRow& row : report.groups) {
      add_bound_row(sim::group_name(row.group), row.bound);
    }
    add_bound_row("TOTAL", report.total);
    table.print();
    std::printf(
        "per-bit-position masked lower bound (single-bit flip at fixed "
        "footprint bit b):\n");
    for (u32 bit = 0; bit < 32; ++bit) {
      std::printf("  b%-2u %6.2f%%%s", bit, report.bit_bounds[bit] * 100.0,
                  bit % 8 == 7 ? "\n" : "");
    }
  }
  if (options.json) std::printf("%s]\n", json.c_str());
  return 0;
}

int cmd_trace(const Options& options) {
  auto machine = machine_for(options);
  if (!machine) return 2;
  auto workload = wl::make_workload(options.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 1;
  }
  sim::Device device(*machine);
  auto spec = workload->setup(device);
  if (!spec.is_ok()) {
    std::fprintf(stderr, "%s\n", spec.status().to_string().c_str());
    return 1;
  }
  sim::TracerHook tracer(/*max_entries=*/64);
  sim::LaunchOptions launch_options;
  launch_options.hooks.push_back(&tracer);
  auto launch = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params,
                              launch_options);
  if (!launch.is_ok()) {
    std::fprintf(stderr, "%s\n", launch.status().to_string().c_str());
    return 1;
  }
  std::printf("%s", tracer.to_string().c_str());
  std::printf("\n%llu dynamic warp instructions total\n",
              static_cast<unsigned long long>(tracer.seen()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gfi::harden::register_hardened_workloads();
  gfi::recover::register_abft_workloads();
  auto options = parse(argc, argv);
  if (!options) return usage();
  if (options->command == "version" || options->command == "--version") {
    return cmd_version();
  }
  if (options->command == "list") return cmd_list();
  // `lint`/`avf` with no workload cover every registered kernel.
  if (options->command == "lint") return cmd_lint(*options);
  if (options->command == "avf") return cmd_avf(*options);
  if (options->workload.empty()) return usage();
  if (options->command == "merge") return cmd_merge(*options);
  // `status` takes a directory / journal / sidecar path in the workload slot.
  if (options->command == "status") return cmd_status(*options);
  if (options->command == "disasm") return cmd_disasm(*options);
  if (options->command == "golden") return cmd_golden(*options);
  if (options->command == "campaign") return cmd_campaign(*options);
  if (options->command == "run") return cmd_run(*options, argv[0]);
  if (options->command == "compare") return cmd_compare(*options);
  if (options->command == "trace") return cmd_trace(*options);
  return usage();
}
