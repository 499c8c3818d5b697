// Seeded byte-level mutation tests for the append-only log layer
// (jsonl::Tail and jsonl::Writer, common/jsonl.h) and every reader built on
// it: campaign journals, the plan file, the supervisor state file,
// heartbeat sidecars, plus the single-line lease and golden-cache files.
//
// Each log is grown the way its writer grows it (valid lines handed out in
// random-sized chunks, so lines tear) and damaged the way crashes and bad
// disks damage it: truncation at random offsets, garbled byte runs,
// duplicated lines, single-bit flips, and a writer reopening the log. After
// every step:
//   * every reader either parses or returns a Status (run under ASan/UBSan
//     in CI, "never crashes" is checked there);
//   * a reader polled incrementally across the steps agrees with a fresh
//     one-shot load of the same bytes;
//   * where the rule is simple enough to restate, the reader agrees with a
//     plain line-split model of it.
// In-place damage is confined to the bytes past what the incremental
// readers consumed: writers only ever append, so a consumed byte never
// changes (a tail never re-reads it), while truncation may cut anywhere.
// Each step also corrupts a copy of the whole file anywhere at all and runs
// the one-shot readers over it, which must still parse or return a Status.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/jsonl.h"
#include "common/rng.h"
#include "fi/campaign.h"
#include "fi/golden_cache.h"
#include "fi/journal.h"
#include "fi/lease.h"
#include "fi/planner.h"
#include "fi/supervisor.h"
#include "obs/heartbeat.h"

namespace gfi {
namespace {

namespace fs = std::filesystem;

using fi::InjectionRecord;
using fi::Journal;
using fi::Outcome;
using fi::PlanEvent;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gfi_log_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Grows and damages one log file. `next_line` yields the writer's next
/// valid line (no '\n'); `frozen` is how far the incremental readers have
/// consumed, which in-place damage never touches.
class LogModel {
 public:
  LogModel(u64 seed, std::string header, std::function<std::string()> next)
      : rng_(seed), header_(std::move(header)), next_line_(std::move(next)) {
    bytes = header_.empty() ? "" : header_ + "\n";
  }

  u64 below(u64 n) { return n == 0 ? 0 : rng_.next() % n; }

  /// One seeded step. `reopen` models a writer resuming the log: its
  /// reader's verdict, the accepted prefix (Writer::open_append) or the
  /// reason it refused the log.
  void step(u64 frozen, const std::function<Result<u64>()>& reopen) {
    const u64 action = below(100);
    if (action < 45) {
      // A live writer: append a random-sized chunk, tearing lines.
      while (pending_.size() < 600) pending_ += next_line_() + "\n";
      const std::size_t n = 1 + below(std::min<u64>(pending_.size(), 400));
      bytes += pending_.substr(0, n);
      pending_.erase(0, n);
    } else if (action < 52) {
      // A duplicated line (a retried append).
      std::vector<std::string> lines;
      std::istringstream in(bytes);
      for (std::string line; std::getline(in, line);) lines.push_back(line);
      if (!lines.empty()) bytes += lines[below(lines.size())] + "\n";
    } else if (action < 60) {
      // Truncation at a random offset (a crash), or to nothing (the log
      // was deleted; its writer recreates it on reopening).
      bytes.resize(below(3) == 0 ? 0 : below(bytes.size() + 1));
      pending_.clear();
    } else if (action < 72) {
      // A garbled run of bytes past the frozen prefix.
      if (bytes.size() > frozen) {
        const u64 at = frozen + below(bytes.size() - frozen);
        const u64 len = std::min<u64>(1 + below(12), bytes.size() - at);
        static constexpr char kAlphabet[] = {
            '\n', '\n', '{', '}', '"', ':', ',', '[', ']', ' ', '0', '1', '2',
            '3',  '4',  '5', '6', '7', '8', '9', 'a', 'b', 'c', 'n', 'u', 'l',
            '\0', '\xff'};
        for (u64 i = 0; i < len; ++i) {
          bytes[at + i] = kAlphabet[below(sizeof(kAlphabet))];
        }
      }
    } else if (action < 84) {
      // A single-bit flip past the frozen prefix.
      if (bytes.size() > frozen) {
        bytes[frozen + below(bytes.size() - frozen)] ^=
            static_cast<char>(1u << below(8));
      }
    } else {
      // A writer reopens the log: it cuts it to the accepted prefix and
      // appends one whole line, recreates a log with no header, and leaves
      // a corrupt one alone.
      const Result<u64> valid = reopen();
      if (valid.is_ok()) {
        bytes.resize(std::min<u64>(valid.value(), bytes.size()));
        bytes += next_line_() + "\n";
      } else if (valid.status().code() == StatusCode::kFailedPrecondition) {
        bytes = header_.empty() ? "" : header_ + "\n";
      }
      pending_.clear();
    }
  }

  /// `bytes` with one random byte anywhere garbled or flipped.
  std::string corrupted_anywhere() {
    std::string copy = bytes;
    if (copy.empty()) return copy;
    const u64 at = below(copy.size());
    if (below(2) == 0) {
      copy[at] ^= static_cast<char>(1u << below(8));
    } else {
      copy[at] = "\n{}\":,"[below(6)];
    }
    return copy;
  }

  std::string bytes;

 private:
  Rng rng_;
  std::string header_;
  std::function<std::string()> next_line_;
  std::string pending_;
};

constexpr int kSteps = 400;

/// The rule restated as a plain line split: the accepted lines, where the
/// accepted prefix ends, and the status code a reader must return.
struct SplitModel {
  std::vector<std::string> lines;
  u64 valid_bytes = 0;
  StatusCode code = StatusCode::kOk;
};

SplitModel split(const std::string& bytes,
                 const std::function<bool(const std::string&)>& accepts) {
  SplitModel out;
  for (std::size_t pos = 0, newline; (newline = bytes.find('\n', pos)) !=
                                     std::string::npos;
       pos = newline + 1) {
    const std::string line = bytes.substr(pos, newline - pos);
    if (!line.empty()) {
      if (!accepts(line)) {
        if (out.lines.empty()) {
          out.code = StatusCode::kInvalidArgument;  // a bad header
          return out;
        }
        if (newline + 1 == bytes.size()) break;  // tolerated torn tail
        out.code = StatusCode::kInternal;
        return out;
      }
      out.lines.push_back(line);
    }
    if (!out.lines.empty()) out.valid_bytes = newline + 1;  // header seen
  }
  return out;
}

TEST(JsonlTail, FollowsTheLogRuleUnderSeededByteMutations) {
  const fs::path dir = scratch_dir("tail");
  const std::string path = (dir / "log.jsonl").string();
  u64 serial = 0;
  LogModel model(0x7a11, "{\"log\":\"header\"}", [&] {
    std::string line = "{";
    jsonl::append_u64(line, "n", serial++);
    jsonl::append_str(line, "s", std::string(serial % 37, 'x'));
    return line + "}";
  });
  auto accepts = [](const std::string& line) {
    jsonl::Fields fields;
    return jsonl::parse_fields(line, &fields);
  };
  // A reader that keeps every accepted line, started over with its tail.
  struct Reader {
    explicit Reader(std::string path) : tail(std::move(path)) {}
    Status poll(const std::function<bool(const std::string&)>& accepts) {
      return tail.poll(
          [&](const std::string& line) {
            if (!accepts(line)) return Status::invalid_argument("bad line");
            lines.push_back(line);
            return Status::ok();
          },
          [&] { lines.clear(); });
    }
    jsonl::Tail tail;
    std::vector<std::string> lines;
  };

  Reader live(path);
  u64 restarts_seen = 0;
  std::array<u64, 3> codes{};
  for (int step = 0; step < kSteps; ++step) {
    model.step(live.tail.offset(), [&]() -> Result<u64> {
      const SplitModel now = split(model.bytes, accepts);
      if (now.code != StatusCode::kOk) return Status(now.code, "refused");
      if (now.lines.empty()) return Status::failed_precondition("no header");
      return now.valid_bytes;
    });
    write_file(path, model.bytes);
    const std::string context = "step " + std::to_string(step);
    const SplitModel want = split(model.bytes, accepts);
    Reader fresh(path);
    const Status polled = live.poll(accepts);
    const Status loaded = fresh.poll(accepts);
    ASSERT_EQ(polled.code(), want.code) << context << ": " << polled.message();
    ASSERT_EQ(loaded.code(), want.code) << context;
    EXPECT_EQ(live.lines, want.lines) << context;
    EXPECT_EQ(fresh.lines, want.lines) << context;
    EXPECT_EQ(live.tail.offset(), want.valid_bytes) << context;
    EXPECT_EQ(fresh.tail.offset(), want.valid_bytes) << context;
    codes[want.code == StatusCode::kOk ? 0
          : want.code == StatusCode::kInternal ? 1 : 2]++;
    restarts_seen = live.tail.restarts();
  }
  // The seed reached good logs, mid-file corruption and shrinking files (a
  // rejected header is rarer; RejectedHeaderIsAnErrorEvenAsTheLastLine
  // pins it).
  EXPECT_GT(codes[0], 0u);
  EXPECT_GT(codes[1], 0u);
  EXPECT_GT(restarts_seen, 0u);
}

TEST(JsonlTail, RejectedHeaderIsAnErrorEvenAsTheLastLine) {
  const fs::path dir = scratch_dir("header");
  const std::string path = (dir / "log.jsonl").string();
  std::vector<std::string> lines;
  auto consume = [&](const std::string& line) {
    if (lines.empty() && line != "{\"h\":1}") {
      return Status::failed_precondition("not a header");
    }
    lines.push_back(line);
    return Status::ok();
  };
  write_file(path, "\n{\"h\":2}\n");
  jsonl::Tail tail(path);
  EXPECT_EQ(tail.poll(consume).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tail.offset(), 0u);  // nothing before a header is consumed
  // The log is recreated in place, longer than before: read from byte 0.
  write_file(path, "{\"h\":1}\n{\"x\":1}\n{\"y\":");
  EXPECT_TRUE(tail.poll(consume).is_ok());
  EXPECT_EQ(lines, (std::vector<std::string>{"{\"h\":1}", "{\"x\":1}"}));
  EXPECT_EQ(tail.offset(), 16u);
}

TEST(JsonlWriter, ReopenCutsATornTailAndCreateWritesTheHeaderOnly) {
  const fs::path dir = scratch_dir("writer");
  const std::string path = (dir / "log.jsonl").string();
  auto created = jsonl::Writer::create(path, "{\"h\":1}", {});
  ASSERT_TRUE(created.is_ok()) << created.status().to_string();
  ASSERT_TRUE(created.value()->append("{\"a\":1}").is_ok());
  created.value().reset();
  EXPECT_EQ(read_file(path), "{\"h\":1}\n{\"a\":1}\n");

  write_file(path, read_file(path) + "{\"a\":2,\"to");  // torn mid-append
  jsonl::Tail tail(path);
  ASSERT_TRUE(tail.poll([](const std::string&) { return Status::ok(); })
                  .is_ok());
  auto reopened = jsonl::Writer::open_append(path, tail.offset(), {});
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  ASSERT_TRUE(reopened.value()->append("{\"a\":3}").is_ok());
  EXPECT_EQ(read_file(path), "{\"h\":1}\n{\"a\":1}\n{\"a\":3}\n");
}

// ------------------------------------------------------------ journals ----

TEST(LogReaders, JournalTailAgreesWithJournalLoadUnderByteMutations) {
  const fs::path dir = scratch_dir("journal");
  const std::string path = (dir / "shard.jsonl").string();
  const std::string damaged = (dir / "damaged.jsonl").string();
  fi::JournalHeader header;
  header.workload = "vecadd";
  header.arch = "toy";
  header.mode = fi::to_string(fi::InjectionMode::kIov);
  header.flip = fi::to_string(fi::BitFlipModel::kSingle);
  header.num_injections = 1000000;
  Rng content(0x10c);
  u64 next_index = 0;
  LogModel model(0x5eed, Journal::header_line(header), [&]() -> std::string {
    if (content.next() % 8 == 0) {
      PlanEvent event;
      event.kind = content.next() % 2 ? PlanEvent::Kind::kAlloc
                                      : PlanEvent::Kind::kStop;
      event.checkpoint = content.next() % 50;
      event.stop_at = content.next() % 5000;
      event.alloc[content.next() % event.alloc.size()] = content.next() % 99;
      return fi::plan_event_line(event);
    }
    InjectionRecord record;
    record.outcome = static_cast<Outcome>(content.next() % fi::kOutcomeCount);
    record.dyn_instrs = content.next() % 100000;
    record.error_magnitude = static_cast<f64>(content.next() % 1000) / 7.0;
    record.site.bit_sel = static_cast<u32>(content.next() % 32);
    record.site.random_value = content.next();
    return Journal::record_line(next_index++, record);
  });

  fi::JournalTail tail(path);
  std::set<StatusCode> seen;
  for (int step = 0; step < kSteps; ++step) {
    model.step(tail.contents().valid_bytes, [&] {
      auto loaded = Journal::load(path);
      return loaded.is_ok() ? Result<u64>(loaded.value().valid_bytes)
                            : Result<u64>(loaded.status());
    });
    write_file(path, model.bytes);
    const std::string context = "step " + std::to_string(step);
    const Status polled = tail.poll();
    auto loaded = Journal::load(path);
    ASSERT_EQ(polled.code(), loaded.status().code())
        << context << ": " << polled.message() << " vs "
        << loaded.status().message();
    seen.insert(polled.code());
    if (loaded.is_ok()) {
      const fi::JournalContents& got = tail.contents();
      const fi::JournalContents& want = loaded.value();
      EXPECT_EQ(got.valid_bytes, want.valid_bytes) << context;
      EXPECT_EQ(got.plan, want.plan) << context;
      ASSERT_EQ(got.records.size(), want.records.size()) << context;
      for (std::size_t r = 0; r < got.records.size(); ++r) {
        EXPECT_EQ(Journal::record_line(got.records[r].first,
                                       got.records[r].second),
                  Journal::record_line(want.records[r].first,
                                       want.records[r].second))
            << context;
      }
      EXPECT_LE(want.valid_bytes, model.bytes.size()) << context;
    }
    write_file(damaged, model.corrupted_anywhere());
    auto anywhere = Journal::load(damaged);
    if (anywhere.is_ok()) {
      EXPECT_LE(anywhere.value().valid_bytes, fs::file_size(damaged));
    }
  }
  EXPECT_TRUE(seen.count(StatusCode::kOk));
  EXPECT_TRUE(seen.count(StatusCode::kInternal));
  EXPECT_TRUE(seen.count(StatusCode::kFailedPrecondition));
}

// ------------------------------------------------------------ plan file ---

TEST(LogReaders, PlanFileTailAgreesWithLoadPlanFileUnderByteMutations) {
  const fs::path dir = scratch_dir("plan");
  const std::string path = (dir / "plan.jsonl").string();
  const std::string damaged = (dir / "damaged.jsonl").string();
  fi::CampaignConfig config;
  config.workload = "vecadd";
  config.num_injections = 600;
  config.seed = 7;
  config.planner.checkpoint_every = 50;
  Rng content(0x9a);
  u64 checkpoint = 0;
  LogModel model(0xb10c, fi::plan_file_header(config), [&] {
    PlanEvent event;
    if (content.next() % 6 == 0) {
      event.kind = PlanEvent::Kind::kStop;
      event.stop_at = 50 * (1 + content.next() % 12);
    } else {
      event.checkpoint = checkpoint++ % 12;
      for (u64& n : event.alloc) n = content.next() % 30;
    }
    return fi::plan_event_line(event);
  });

  fi::PlanFileTail tail(path, config);
  std::set<StatusCode> seen;
  for (int step = 0; step < kSteps; ++step) {
    model.step(tail.contents().valid_bytes, [&] {
      auto loaded = fi::load_plan_file(path, config);
      return loaded.is_ok() ? Result<u64>(loaded.value().valid_bytes)
                            : Result<u64>(loaded.status());
    });
    write_file(path, model.bytes);
    const std::string context = "step " + std::to_string(step);
    const Status polled = tail.poll();
    auto loaded = fi::load_plan_file(path, config);
    ASSERT_EQ(polled.code(), loaded.status().code())
        << context << ": " << polled.message() << " vs "
        << loaded.status().message();
    seen.insert(polled.code());
    if (loaded.is_ok()) {
      EXPECT_EQ(tail.contents().allocs, loaded.value().allocs) << context;
      EXPECT_EQ(tail.contents().stop_at, loaded.value().stop_at) << context;
      EXPECT_EQ(tail.contents().valid_bytes, loaded.value().valid_bytes)
          << context;
    }
    write_file(damaged, model.corrupted_anywhere());
    (void)fi::load_plan_file(damaged, config);
  }
  EXPECT_TRUE(seen.count(StatusCode::kOk));
  EXPECT_TRUE(seen.count(StatusCode::kInternal));
  EXPECT_TRUE(seen.count(StatusCode::kFailedPrecondition));
}

// ----------------------------------------------------- heartbeat sidecar --

TEST(LogReaders, StatusFileKeepsTheLastParseableLineUnderByteMutations) {
  const fs::path dir = scratch_dir("heartbeat");
  const std::string path = (dir / "s.jsonl.status.jsonl").string();
  obs::HeartbeatState state;
  state.workload = "gemm";
  state.arch = "A100";
  state.total = 1 << 20;
  state.outcome_counts.assign(fi::kOutcomeCount, 0);
  LogModel model(0x4ea7, "", [&] {
    ++state.done;
    ++state.outcome_counts[state.done % fi::kOutcomeCount];
    state.elapsed_s = static_cast<f64>(state.done) / 3.0;
    return obs::heartbeat_line(state);
  });
  u64 parsed_steps = 0;
  for (int step = 0; step < kSteps; ++step) {
    model.step(0, [] { return Result<u64>(u64{0}); });
    write_file(path, model.bytes);
    std::optional<std::string> want;
    for (const std::string& line :
         split(model.bytes, [](const std::string&) { return true; }).lines) {
      if (auto beat = obs::parse_heartbeat(line); beat.is_ok()) {
        want = obs::heartbeat_line(beat.value());
      }
    }
    auto loaded = obs::load_status_file(path);
    ASSERT_EQ(loaded.is_ok(), want.has_value()) << "step " << step;
    if (want) {
      EXPECT_EQ(obs::heartbeat_line(loaded.value()), *want) << "step " << step;
      ++parsed_steps;
    } else {
      EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
    }
  }
  EXPECT_GT(parsed_steps, 0u);
}

// --------------------------------------------------------------- leases ---

TEST(LogReaders, ReadLeaseParsesOrRefusesUnderByteMutations) {
  const fs::path dir = scratch_dir("lease");
  const std::string path = (dir / "shard.jsonl.lease").string();
  fi::Lease lease;
  lease.owner = "host:42";
  lease.pid = 42;
  lease.shard = 3;
  lease.expires_ms = 1700000000000ULL;
  const std::string line = fi::lease_line(lease);
  LogModel model(0x1ea5, "", [&] { return line; });
  u64 parsed = 0;
  u64 refused = 0;
  for (int step = 0; step < kSteps; ++step) {
    model.step(0, [] { return Result<u64>(u64{0}); });
    if (step % 3 == 0) model.bytes = line + "\n";  // keep the file lease-like
    const std::string bytes = model.corrupted_anywhere();
    write_file(path, bytes);
    auto read = fi::read_lease(path);
    const std::string first = bytes.substr(0, bytes.find('\n'));
    EXPECT_EQ(read.is_ok(), fi::parse_lease(first).is_ok()) << "step " << step;
    if (read.is_ok()) {
      ++parsed;
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kInternal);
      ++refused;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

// ------------------------------------------------- golden-cache entries --

bool same_golden(const fi::Campaign::Golden& a, const fi::Campaign::Golden& b) {
  return a.dyn_instrs == b.dyn_instrs &&
         a.profile.warp_instrs_by_opcode == b.profile.warp_instrs_by_opcode &&
         a.profile.warp_instrs_by_group == b.profile.warp_instrs_by_group &&
         a.profile.thread_instrs_by_group == b.profile.thread_instrs_by_group &&
         a.profile.total_warp_instrs == b.profile.total_warp_instrs &&
         a.profile.total_thread_instrs == b.profile.total_thread_instrs;
}

TEST(LogReaders, GoldenEntryServesTheWrittenProfileOrRefusesUnderMutations) {
  // A golden-cache entry is one line the cache replaces whole. Damaged, it
  // must parse to the profile and dynamic count that were written (the key
  // is compared by the cache; cycles carry no redundancy) or be refused,
  // never serve a wrong profile.
  fi::CampaignConfig config;
  config.workload = "vecadd";
  config.machine = arch::toy();
  auto golden = fi::Campaign::golden_run(config);
  ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
  const std::string key = fi::GoldenCache::key_for(config);
  const std::string line = fi::golden_line(key, golden.value());
  auto served = [&](const std::string& bytes) {
    auto parsed = fi::parse_golden_line(bytes.substr(0, bytes.find('\n')));
    return parsed.is_ok() && parsed.value().first == key
               ? std::optional<fi::Campaign::Golden>(parsed.value().second)
               : std::nullopt;
  };
  ASSERT_TRUE(served(line).has_value());

  // Every digit of the profile arrays and of the counts they must add up
  // to, replaced by another digit.
  const std::size_t counts_from = line.find("\"profile_warp_total\"");
  const std::size_t dyn_at = line.find("\"dyn\"");
  const std::size_t cycles_at = line.find("\"cycles\"");
  ASSERT_NE(counts_from, std::string::npos);
  u64 digits = 0;
  for (std::size_t at = dyn_at; at < line.size(); ++at) {
    if (at >= cycles_at && at < counts_from) continue;
    if (line[at] < '0' || line[at] > '9') continue;
    std::string damaged = line;
    damaged[at] = static_cast<char>('0' + (line[at] - '0' + 3) % 10);
    EXPECT_FALSE(served(damaged).has_value()) << "digit at " << at;
    ++digits;
  }
  EXPECT_GT(digits, 2u * sim::kOpcodeCount);

  // Seeded damage anywhere in the file.
  LogModel model(0x901d, "", [&] { return line; });
  u64 parsed = 0;
  u64 refused = 0;
  for (int step = 0; step < kSteps; ++step) {
    model.step(0, [] { return Result<u64>(u64{0}); });
    if (step % 3 == 0) model.bytes = line + "\n";  // keep it entry-like
    const auto got = served(model.corrupted_anywhere());
    if (got) {
      EXPECT_TRUE(same_golden(*got, golden.value())) << "step " << step;
      ++parsed;
    } else {
      ++refused;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);

  // A damaged entry on disk is discarded: the cache recomputes the golden
  // run and serves the true profile.
  const fs::path dir = scratch_dir("golden");
  auto& cache = fi::GoldenCache::instance();
  cache.clear();
  cache.set_directory(dir.string());
  ASSERT_TRUE(cache.get_or_run(config).is_ok());
  fs::path entry;
  for (const auto& file : fs::directory_iterator(dir)) entry = file.path();
  ASSERT_FALSE(entry.empty());
  std::string damaged = line;
  const std::size_t digit = line.find_first_of("123456789", line.find("\"profile_op\""));
  damaged[digit] = damaged[digit] == '9' ? '8' : static_cast<char>(damaged[digit] + 1);
  write_file(entry.string(), damaged + "\n");
  cache.clear();
  auto recomputed = cache.get_or_run(config);
  ASSERT_TRUE(recomputed.is_ok()) << recomputed.status().to_string();
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_TRUE(same_golden(recomputed.value(), golden.value()));
  EXPECT_EQ(read_file(entry.string()), line + "\n");
  cache.set_directory("");
  cache.clear();
}

// ------------------------------------------------- supervisor state file --

TEST(LogReaders, SupervisorStateReplaysOrRefusesUnderByteMutations) {
  const fs::path dir = scratch_dir("state");
  // A finished two-shard campaign: a resumed supervisor replays its state
  // file, finds every shard complete and merges, launching nothing.
  fi::SupervisorConfig config;
  config.exe = GFI_GPUFI_BIN;
  config.workload = "vecadd";
  config.dir = (dir / "run").string();
  config.shards = 2;
  config.num_injections = 8;
  config.seed = 7;
  fs::create_directories(config.dir);
  for (u32 s = 0; s < config.shards; ++s) {
    fi::CampaignConfig shard;
    shard.workload = "vecadd";
    shard.machine = arch::toy();
    shard.num_injections = config.num_injections;
    shard.seed = config.seed;
    shard.threads = 1;
    shard.shard_index = s;
    shard.shard_count = config.shards;
    shard.journal_path = fi::Supervisor::shard_journal_path(config.dir, s);
    ASSERT_TRUE(fi::Campaign::run(shard).is_ok());
  }
  auto first = fi::Supervisor::run(config);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_EQ(first.value().worker_launches, 0u);
  const std::string state = fi::Supervisor::state_path(config.dir);
  const std::string header = read_file(state).substr(
      0, read_file(state).find('\n'));
  jsonl::Fields want_header;
  ASSERT_TRUE(jsonl::parse_fields(header, &want_header));

  Rng content(0x57a7e);
  LogModel model(0xc0de, header, [&] {
    std::string line = "{";
    if (content.next() % 3 == 0) {
      jsonl::append_str(line, "ev", "quarantine");
      jsonl::append_u64(line, "index", content.next() % 8);
    } else {
      jsonl::append_str(line, "ev", "launch");
      jsonl::append_u64(line, "shard", content.next() % 2);
    }
    return line + "}";
  });
  // The replay rule, restated: the first line is a header for this
  // campaign, every line is a JSON object, and a quarantine event carries
  // its index. `replay` resets what one pass over the file collects.
  std::set<u64> quarantine;
  bool have_header = false;
  auto replay = [&] {
    quarantine.clear();
    have_header = false;
  };
  auto accepts = [&](const std::string& line) {
    jsonl::Fields fields;
    if (!jsonl::parse_fields(line, &fields)) return false;
    if (!have_header) {
      have_header =
          jsonl::get_str(fields, "supervisor") ==
              jsonl::get_str(want_header, "supervisor") &&
          jsonl::get_str(fields, "workload").value_or("") == config.workload &&
          jsonl::get_u64(fields, "shards").value_or(0) == config.shards &&
          jsonl::get_u64(fields, "num_injections").value_or(0) ==
              config.num_injections &&
          jsonl::get_u64(fields, "seed").value_or(0) == config.seed;
      return have_header;
    }
    if (jsonl::get_str(fields, "ev") != "quarantine") return true;
    auto index = jsonl::get_u64(fields, "index");
    if (index) quarantine.insert(*index);
    return index.has_value();
  };
  config.resume = true;
  std::set<bool> outcomes;
  for (int step = 0; step < kSteps; ++step) {
    model.step(0, [&]() -> Result<u64> {
      replay();
      const SplitModel now = split(model.bytes, accepts);
      if (now.code != StatusCode::kOk) return Status(now.code, "refused");
      if (!have_header) return Status::failed_precondition("no header");
      return now.valid_bytes;
    });
    write_file(state, model.bytes);
    replay();
    const SplitModel want = split(model.bytes, accepts);
    const bool ok = want.code == StatusCode::kOk && have_header;
    const bool fresh_file = model.bytes.empty();
    auto ran = fi::Supervisor::run(config);
    const std::string context = "step " + std::to_string(step);
    if (fresh_file) {
      EXPECT_TRUE(ran.is_ok()) << context;
      continue;
    }
    ASSERT_EQ(ran.is_ok(), ok) << context << ": "
                               << ran.status().to_string();
    outcomes.insert(ok);
    if (ok) {
      EXPECT_EQ(ran.value().worker_launches, 0u) << context;
      EXPECT_EQ(std::set<u64>(ran.value().quarantined.begin(),
                              ran.value().quarantined.end()),
                quarantine)
          << context;
    }
  }
  EXPECT_EQ(outcomes.size(), 2u);  // both replays and refusals happened
}

}  // namespace
}  // namespace gfi
