// Crash-safe campaign journal: one JSONL line per completed injection.
//
// A journal makes a campaign an append-only log of independent, replayable
// units. The first line is a header binding the journal to its campaign
// (workload, arch, fault model, seed, injection count, shard) plus the
// golden-run reference, so a resumed or merged journal can never silently
// mix incompatible runs. Every subsequent line is one InjectionRecord,
// flushed as soon as the injection completes. On restart:
//   * a file truncated mid-record keeps every complete line (the torn tail
//     is discarded and overwritten),
//   * already-journaled injections are skipped, and
//   * aggregate outcome counts are rebuilt deterministically, so a killed
//     and resumed campaign is bit-identical to an uninterrupted one.
// Shard journals (--shard i/N) partition the same index space and are
// recombined with merge_journals().
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/jsonl.h"
#include "common/status.h"
#include "fi/campaign.h"

namespace gfi::fi {

/// First line of every journal: identifies the campaign and caches the
/// phase-1 golden reference so resume never re-runs it.
struct JournalHeader {
  std::string workload;
  std::string arch;  ///< MachineConfig::name
  std::string mode;  ///< to_string(InjectionMode)
  std::string flip;  ///< to_string(BitFlipModel)
  /// to_string(FaultPersistence). Absent in pre-recovery journals, which
  /// were all transient — the parser defaults accordingly.
  std::string persist = "transient";
  u32 max_retries = 0;  ///< recovery budget (absent in old journals = 0)
  std::optional<std::string> group;  ///< instruction-group filter, if any
  std::optional<u32> fixed_bit;
  u64 seed = 0;
  u64 num_injections = 0;  ///< global campaign size (across all shards)
  u32 shard_index = 0;
  u32 shard_count = 1;
  u64 golden_dyn_instrs = 0;
  u64 golden_cycles = 0;
  /// Adaptive-planner identity, normalized (all-zero when inactive, so
  /// pre-planner journals and planner-off campaigns compare equal). A
  /// journal written under one stopping rule or stratification scheme can
  /// never silently resume under another.
  PlannerConfig planner;
  sim::Profile profile;  ///< golden dynamic-instruction profile
};

/// Header describing `config` + its golden run.
JournalHeader make_journal_header(const CampaignConfig& config,
                                  const Campaign::Golden& golden);

/// Rejects resume against a journal written by a different campaign
/// (workload, arch, fault model, seed, size, shard, or golden mismatch).
Status check_journal_compatible(const JournalHeader& header,
                                const CampaignConfig& config,
                                const Campaign::Golden& golden);

/// Parsed journal contents. `valid_bytes` is the offset just past the last
/// complete record — the truncation point for crash-safe appends.
struct JournalContents {
  JournalHeader header;
  std::vector<std::pair<u64, InjectionRecord>> records;  ///< (global index, record)
  /// Planner decisions journaled alongside the records (file order:
  /// allocations before their block's records, a stop event last).
  std::vector<PlanEvent> plan;
  u64 valid_bytes = 0;
};

class Journal {
 public:
  /// Loads a journal, tolerating a torn trailing record (a mid-record crash
  /// leaves a partial last line, which is dropped). A malformed line in the
  /// middle of the file is corruption and fails. One JournalTail::poll().
  static Result<JournalContents> load(const std::string& path);

  // Serialization primitives (exposed for tests and the merge tool).
  static std::string header_line(const JournalHeader& header);
  static std::string record_line(u64 index, const InjectionRecord& record);
  static Result<JournalHeader> parse_header(const std::string& line);
  static Result<std::pair<u64, InjectionRecord>> parse_record(
      const std::string& line);
};

/// Incremental reader of a journal that is still being written (the
/// supervisor's view of a live shard), over jsonl::Tail: each poll() reads
/// only the bytes appended since the previous one.
///
/// After every poll() the tail agrees with a fresh Journal::load of the
/// file's current bytes: the same status, and on success the same header,
/// records (file order, duplicates kept), plan events and valid_bytes. What
/// lies past valid_bytes is never consumed and is read again next poll: a
/// trailing partial line, and a final complete line that does not parse
/// (the torn tail JournalWriter::open_append truncates). A file shorter than
/// valid_bytes was truncated below what the tail consumed or replaced; the
/// tail then starts over from byte 0.
class JournalTail {
 public:
  explicit JournalTail(std::string path) : tail_(std::move(path)) {}

  Status poll();

  [[nodiscard]] const JournalContents& contents() const { return contents_; }
  JournalContents take() && { return std::move(contents_); }
  /// Times the tail started over from byte 0. A consumer that remembers a
  /// position in contents().records must start over when this changes.
  [[nodiscard]] u64 restarts() const { return tail_.restarts(); }
  /// Bytes read from the file over the tail's lifetime.
  [[nodiscard]] u64 bytes_read() const { return tail_.bytes_read(); }

 private:
  jsonl::Tail tail_;
  JournalContents contents_;
  bool have_header_ = false;
};

/// Append-only writer over jsonl::Writer; one flushed line per record, with
/// the failpoint sites `journal.append` and `journal.flush`. Thread-safe.
class JournalWriter {
 public:
  /// Creates (truncating) `path` and writes the header line.
  static Result<std::unique_ptr<JournalWriter>> create(
      const std::string& path, const JournalHeader& header);

  /// Opens an existing journal for appending, first truncating the file to
  /// `valid_bytes` (from Journal::load) so a torn tail never corrupts the
  /// next record.
  static Result<std::unique_ptr<JournalWriter>> open_append(
      const std::string& path, u64 valid_bytes);

  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  Status append(u64 index, const InjectionRecord& record);
  /// Appends one planner decision line (fi/planner.h line format), under
  /// the same flush + failpoint discipline as records.
  Status append_plan(const PlanEvent& event);

 private:
  explicit JournalWriter(std::unique_ptr<jsonl::Writer> log)
      : log_(std::move(log)) {}

  std::unique_ptr<jsonl::Writer> log_;
};

/// A campaign reassembled from shard journals: records in global index
/// order (dense over [0, num_injections) unless merged allow_partial), plus
/// the rebuilt outcome table.
struct MergedCampaign {
  JournalHeader header;  ///< shard fields reset to 0/1
  std::vector<InjectionRecord> records;
  /// Global injection index of records[k]. Identity for a complete merge;
  /// the surviving subsequence for a partial one.
  std::vector<u64> indices;
  /// Injections not covered by any journal (nonzero only with allow_partial).
  u64 missing = 0;
  /// Planner decisions, deduplicated across shards and verified equal:
  /// allocations in checkpoint order, then the stop event if any.
  std::vector<PlanEvent> plan;
  /// Global injections the campaign covers: header.num_injections, or the
  /// journaled stop boundary when the planner halted it early.
  u64 effective_injections = 0;
  /// Records beyond the stop boundary (a worker racing ahead of the
  /// supervisor's stop decision); dropped deterministically from the merge.
  u64 overshoot = 0;
  std::array<u64, kOutcomeCount> outcome_counts{};

  [[nodiscard]] u64 count(Outcome outcome) const {
    return outcome_counts[static_cast<int>(outcome)];
  }
};

struct MergeOptions {
  /// Accept an incomplete shard set: missing shards / unfinished slices are
  /// tolerated and the merge returns only the covered records (statistics
  /// over a partial campaign are biased toward fast injections — this is an
  /// escape hatch, not a default).
  bool allow_partial = false;
};

/// Merges shard journals into one campaign. A malformed shard *set* —
/// duplicate shard indices, disagreeing shard counts, missing shards, or
/// uncovered indices — is kFailedPrecondition with the offending shards
/// named (relaxed by MergeOptions::allow_partial); identity mismatches are
/// kFailedPrecondition; corrupt record indices are kInternal.
Result<MergedCampaign> merge_journals(const std::vector<std::string>& paths,
                                      const MergeOptions& options = {});

/// Writes `merged` back out as a journal file (temp file + rename, so a
/// crash never leaves a torn merged journal). A complete merge of shard
/// journals is byte-identical to the journal an uninterrupted unsharded
/// single-threaded run would have written — the bit-identity contract the
/// supervisor's auto-merge is verified against.
Status write_merged_journal(const std::string& path,
                            const MergedCampaign& merged);

/// Serialization of one golden run, used by the on-disk golden cache. `key`
/// is the full cache key; it is stored verbatim so a filename-hash collision
/// degrades to a recompute, never to a wrong reference. The last field,
/// `sum`, is FNV-1a over the entry without it: parse_golden_line refuses an
/// entry whose checksum or restated profile counts do not hold.
std::string golden_line(const std::string& key, const Campaign::Golden& golden);
Result<std::pair<std::string, Campaign::Golden>> parse_golden_line(
    const std::string& line);

}  // namespace gfi::fi
