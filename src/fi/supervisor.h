// Resilient campaign supervisor: `gpufi run`.
//
// Orchestrates a pool of shard-worker subprocesses (one `gpufi campaign
// --shard=i/N --journal=...` per shard) and keeps a campaign alive through
// worker crashes, hangs, and IO failures:
//
//   * shard leases (fi/lease.h) with TTL: a supervisor restart — or a
//     second supervisor pointed at the same directory — takes over shards
//     whose leases have lapsed and resumes them from their journals
//     (work-stealing for stalled shards);
//   * bounded retry with exponential backoff + deterministic jitter
//     (common/backoff.h) for workers that exit nonzero or stop
//     heartbeating; resume-from-journal means no completed injection is
//     ever re-run;
//   * poison-injection quarantine: an injection index that repeatedly
//     kills its worker (detected as the lowest unjournaled index of a
//     crashed single-threaded shard, counted only when the crash happened
//     in a slot the worker ran on its own) is, after `poison_threshold`
//     consecutive crashes, passed to the relaunched worker as
//     --quarantine=... and journaled as Outcome::kQuarantined instead of
//     wedging the shard forever;
//   * a journaled supervisor state file (`<dir>/supervisor.jsonl`) so
//     `gpufi run --resume` reconstructs the quarantine set and keeps the
//     final auto-merge bit-identical to an uninterrupted unsharded run.
//
// The supervisor never sleeps on a fixed period. Each worker holds one end
// of an AF_UNIX socketpair (fi/wake.h); the supervision loop blocks in
// poll() on all of them, with a timeout that runs to its next timed duty (a
// lease refresh at ttl/3, a stall check, a backoff expiry). A worker that
// exits closes its end, so the supervisor reaps it at once. It reads shard
// journals only through one fi::JournalTail per shard (each appended byte
// read about once) for progress, completeness, crash bookkeeping and the
// planner, until the final merge. Under the adaptive planner a
// plan-following worker sends a byte after journaling each block, and the
// supervisor, after appending a decision to `<dir>/plan.jsonl`, sends a
// byte to every live worker to end its wait.
// The bytes carry no data: journals and the plan file stay the only source
// of truth, so a lost wake costs latency, never correctness.
//
// Bit-identity argument: a record's bytes are a pure function of
// (seed, global index, quarantine set) — scheduling, retries, takeovers,
// and resume order never enter record content, and the quarantine set is
// journaled before it is first used, so any interleaving of crashes and
// restarts converges to the same merged journal.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "fi/journal.h"

namespace gfi::fi {

struct SupervisorConfig {
  std::string exe;       ///< gpufi binary to exec for workers
  std::string workload;  ///< positional workload name for `campaign`
  /// Campaign flags passed through to every worker verbatim (fault model,
  /// seed, injections, arch, golden cache, ...). The supervisor appends
  /// --shard / --journal / --threads=1 / --heartbeat-ms / --quarantine.
  std::vector<std::string> worker_flags;
  std::string dir;  ///< campaign directory (journals, leases, state, logs)
  u32 shards = 4;
  u32 max_workers = 0;  ///< concurrent workers; 0 = shards
  /// Mirror of the worker-side campaign geometry, needed to reason about
  /// slices and completeness without parsing worker flags.
  u64 num_injections = 1000;
  u64 seed = 0x5eed;

  u64 lease_ttl_ms = 15000;  ///< lease validity; refreshed at ttl/3
  /// A running worker whose heartbeat sidecar has not been written for this
  /// long is presumed hung, SIGKILLed, and retried. 0 disables.
  u64 stall_timeout_ms = 30000;
  u64 worker_heartbeat_ms = 500;  ///< --heartbeat-ms passed to workers

  /// A shard is abandoned (kFailed) after this many consecutive worker
  /// deaths with zero journal progress. Progress resets the count.
  u32 max_shard_attempts = 6;
  /// Consecutive crashes pinned on the same injection index before that
  /// index is quarantined.
  u32 poison_threshold = 3;
  u64 backoff_base_ms = 500;
  u64 backoff_cap_ms = 10000;

  /// GFI_FAILPOINTS value for worker processes (chaos testing). Always set
  /// explicitly in the child environment — workers never inherit the
  /// supervisor's own failpoint spec, and "" strips the variable.
  std::string worker_failpoints;
  bool resume = false;  ///< accept an existing supervisor state file

  /// Unsharded mirror of the worker campaign (same workload, fault model,
  /// seed, size, and planner knobs; shard 0/1). Consulted only when
  /// `campaign.planner` is active: the supervisor is the one party that
  /// sees the full global record prefix, so it computes every planner
  /// decision itself (fi/planner.h) and publishes them to `<dir>/plan.jsonl`
  /// for the plan-following workers. It MUST match the flags the workers
  /// are launched with — worker journal headers are derived from it when a
  /// stop must be recorded in a journal the worker never got to write.
  CampaignConfig campaign;
};

struct SupervisorResult {
  u64 crashes = 0;       ///< worker exits with nonzero status or by signal
  u64 stall_kills = 0;   ///< workers SIGKILLed for stale heartbeats
  u64 takeovers = 0;     ///< expired foreign leases taken over
  u64 worker_launches = 0;
  std::vector<u64> quarantined;  ///< global indices quarantined (sorted)
  u32 shards_failed = 0;         ///< shards abandoned after max attempts
  /// Boundary where the sequential stopping rule halted the campaign
  /// (0 = the planner never stopped it and the full budget ran).
  u64 plan_stop = 0;
  /// Shard-journal bytes the supervisor read before its final merge. Every
  /// such read goes through a per-shard JournalTail, so this stays near the
  /// final journal sizes however many checkpoints and shard events the
  /// campaign passes.
  u64 journal_bytes_read = 0;
  /// Strict auto-merge of all shard journals; meaningful only when
  /// shards_failed == 0.
  MergedCampaign merged;
};

class Supervisor {
 public:
  /// Runs the campaign to completion (or to abandonment). Worker crashes,
  /// stalls, and IO failures are handled internally; an error return means
  /// the supervisor itself could not proceed (bad config, state-file
  /// conflict, lease corruption, or an injected supervisor fault).
  static Result<SupervisorResult> run(const SupervisorConfig& config);

  /// The shard journal path convention: `<dir>/shard-<i>.jsonl`.
  static std::string shard_journal_path(const std::string& dir, u32 shard);
  /// The supervisor state journal: `<dir>/supervisor.jsonl`.
  static std::string state_path(const std::string& dir);
  /// The published planner decisions: `<dir>/plan.jsonl`.
  static std::string plan_path(const std::string& dir);
};

}  // namespace gfi::fi
