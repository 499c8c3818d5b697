// Flat one-line JSON (JSONL) writer/scanner shared by the campaign journal
// (fi/journal.cc), the golden cache, the supervisor's plan and state files,
// and the observability heartbeat stream (obs/heartbeat.cc). Supports
// exactly the shape those files emit: a single non-nested object per line
// whose values are strings, numbers, nulls, and arrays of unsigned integers.
// Below the line format sit the one reader (Tail) and the one writer
// (Writer) of every append-only log those files are.
//
// Two invariants every producer relies on:
//   * append_f64 never emits the `inf`/`nan` tokens (invalid JSON that would
//     poison a resume parse): NaN serializes as `null` (parsed back by
//     get_f64 as quiet NaN) and ±inf as the overflowing-but-valid JSON
//     number `±1e999` (parsed back as ±inf), so every f64 round-trips.
//   * the writers are append-only on a buffer that starts as "{", and
//     append_key tolerates (ignores) an empty buffer instead of indexing
//     out.back() into undefined behaviour.
#pragma once

#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace gfi::jsonl {

// ------------------------------------------------------------- writing ---

/// Appends `,"key":` (or `"key":` right after the opening brace). A defensive
/// no-key prefix is used if `out` is empty rather than touching out.back().
void append_key(std::string& out, const char* key);

void append_u64(std::string& out, const char* key, u64 value);

/// Finite values via %.17g (round-trip exact); NaN as `null`, ±inf as
/// `±1e999` (strtod overflows it back to ±inf).
void append_f64(std::string& out, const char* key, f64 value);

/// Quoted string with '"' and '\\' escaped.
void append_str(std::string& out, const char* key, const std::string& value);

void append_u64_array(std::string& out, const char* key,
                      const std::vector<u64>& values);

template <std::size_t N>
void append_array(std::string& out, const char* key,
                  const std::array<u64, N>& values) {
  append_u64_array(out, key, std::vector<u64>(values.begin(), values.end()));
}

// ------------------------------------------------------------- parsing ---

/// Minimal scanner for the flat one-line JSON the writers above produce:
/// string, number/null, and unsigned-array values only, no nesting.
struct Fields {
  std::map<std::string, std::string> scalars;  ///< raw text, strings unquoted
  std::map<std::string, std::vector<u64>> arrays;
};

/// Parses one object line into `out`. Returns false on malformed input
/// (including a truncated line — the caller's torn-tail case).
bool parse_fields(const std::string& line, Fields* out);

std::optional<u64> get_u64(const Fields& fields, const char* key);

/// Numbers parse normally (±1e999 overflows to ±inf, matching append_f64's
/// infinity encoding); a `null` value comes back as quiet NaN.
std::optional<f64> get_f64(const Fields& fields, const char* key);

std::optional<std::string> get_str(const Fields& fields, const char* key);

template <std::size_t N>
bool copy_array(const Fields& fields, const char* key,
                std::array<u64, N>* out) {
  auto it = fields.arrays.find(key);
  if (it == fields.arrays.end() || it->second.size() != N) return false;
  std::copy(it->second.begin(), it->second.end(), out->begin());
  return true;
}

// ---------------------------------------------------- append-only logs ---
//
// Journals, the plan file, the supervisor state file and heartbeat sidecars
// follow one rule, implemented only by Tail and Writer:
//   * a line is one record, written whole with its '\n' and flushed;
//   * readers take complete lines only; a trailing partial line is a write
//     in flight (or torn by a crash) and is read again next time;
//   * the first non-empty line is the header: nothing before an accepted
//     one is consumed, and a rejected one means the file is not this log;
//   * any other rejected line is tolerated only as the final complete line,
//     and is left unconsumed; anywhere else it is corruption;
//   * a reopened log is first truncated to the end of the last accepted
//     line, so nothing is ever appended to torn bytes;
//   * a file shorter than what a reader consumed was truncated or replaced:
//     the reader starts over from byte 0.

/// Incremental reader: each poll() reads only the bytes appended since the
/// previous one. A one-shot load is one poll() of a fresh Tail.
class Tail {
 public:
  /// Accepts one complete non-empty line (no '\n'); an error rejects it.
  using LineFn = std::function<Status(const std::string& line)>;

  explicit Tail(std::string path) : path_(std::move(path)) {}

  /// Hands each new line, in file order, to `consume`; `restart` runs first
  /// when the tail starts over, so the caller can drop what it built.
  /// kNotFound when the file cannot be opened; a rejected header returns
  /// `consume`'s status; a rejected line before the last is kInternal.
  Status poll(const LineFn& consume,
              const std::function<void()>& restart = {});

  /// End of the last accepted line: what a reopening Writer keeps.
  [[nodiscard]] u64 offset() const { return offset_; }
  [[nodiscard]] u64 restarts() const { return restarts_; }
  [[nodiscard]] u64 bytes_read() const { return bytes_read_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  u64 offset_ = 0;  ///< 0 until a header is accepted
  u64 restarts_ = 0;
  u64 bytes_read_ = 0;
};

/// Failpoint sites (common/failpoint.h) evaluated on each append: `append`
/// before the write (err: ENOSPC; torn: half the line, then the process
/// dies), `flush` after it (err: EIO with the line already written).
struct WriterSites {
  const char* append = nullptr;
  const char* flush = nullptr;
};

/// Append-only writer: one flushed line per append(). Thread-safe.
class Writer {
 public:
  /// Creates (truncating) `path`; a nonempty `header` is its first line,
  /// written without failpoints.
  static Result<std::unique_ptr<Writer>> create(const std::string& path,
                                                const std::string& header,
                                                WriterSites sites);
  /// Reopens a log, first truncating it to `valid_bytes` (its Tail's
  /// offset()) so a torn or rejected tail never runs into the next line.
  static Result<std::unique_ptr<Writer>> open_append(const std::string& path,
                                                     u64 valid_bytes,
                                                     WriterSites sites);

  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Status append(const std::string& line);

 private:
  Writer(std::FILE* file, std::string path, WriterSites sites)
      : file_(file), path_(std::move(path)), sites_(sites) {}
  static Result<std::unique_ptr<Writer>> open(const std::string& path,
                                              const char* mode,
                                              WriterSites sites);

  std::FILE* file_ = nullptr;
  std::string path_;
  WriterSites sites_;
  std::mutex mutex_;
};

/// Writes the whole of `path`: `write` fills a pid-suffixed temp file (and
/// returns false if it could not), which is then renamed over `path`, so
/// readers see the old file or the new one, never a torn one. For files
/// replaced rather than appended to: leases, golden-cache entries, merged
/// journals, metrics snapshots.
Status replace_file(const std::string& path,
                    const std::function<bool(std::FILE*)>& write);
Status replace_file(const std::string& path, const std::string& content);

}  // namespace gfi::jsonl
