#include "common/jsonl.h"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/failpoint.h"

namespace gfi::jsonl {

void append_key(std::string& out, const char* key) {
  // The buffer normally starts as "{"; guard the empty case so a misuse can
  // never index out.back() of an empty string (UB).
  if (!out.empty() && out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
}

void append_u64(std::string& out, const char* key, u64 value) {
  append_key(out, key);
  out += std::to_string(value);
}

void append_f64(std::string& out, const char* key, f64 value) {
  append_key(out, key);
  if (std::isnan(value)) {
    // %.17g would print `nan`, which is not JSON and breaks every consumer
    // (including our own resume parse). Null round-trips as NaN.
    out += "null";
    return;
  }
  if (std::isinf(value)) {
    // Infinities are legitimate record values (e.g. relative error against
    // a zero golden element), so they must survive a journal round-trip.
    // `1e999` is a grammatically valid JSON number that strtod overflows
    // back to ±HUGE_VAL, unlike the non-JSON `inf` token %.17g prints.
    out += value > 0 ? "1e999" : "-1e999";
    return;
  }
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void append_str(std::string& out, const char* key, const std::string& value) {
  append_key(out, key);
  out += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_u64_array(std::string& out, const char* key,
                      const std::vector<u64>& values) {
  append_key(out, key);
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

namespace {

bool skip_ws(const std::string& s, std::size_t& pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  return pos < s.size();
}

bool parse_quoted(const std::string& s, std::size_t& pos, std::string* out) {
  if (pos >= s.size() || s[pos] != '"') return false;
  ++pos;
  out->clear();
  while (pos < s.size() && s[pos] != '"') {
    if (s[pos] == '\\') {
      if (++pos >= s.size()) return false;
    }
    *out += s[pos++];
  }
  if (pos >= s.size()) return false;
  ++pos;  // closing quote
  return true;
}

}  // namespace

bool parse_fields(const std::string& line, Fields* out) {
  std::size_t pos = 0;
  if (!skip_ws(line, pos) || line[pos] != '{') return false;
  ++pos;
  if (!skip_ws(line, pos)) return false;
  if (line[pos] == '}') return true;  // empty object
  while (true) {
    std::string key;
    if (!skip_ws(line, pos) || !parse_quoted(line, pos, &key)) return false;
    if (!skip_ws(line, pos) || line[pos] != ':') return false;
    ++pos;
    if (!skip_ws(line, pos)) return false;
    if (line[pos] == '"') {
      std::string value;
      if (!parse_quoted(line, pos, &value)) return false;
      out->scalars[key] = value;
    } else if (line[pos] == '[') {
      ++pos;
      std::vector<u64> values;
      if (!skip_ws(line, pos)) return false;
      while (line[pos] != ']') {
        char* end = nullptr;
        values.push_back(std::strtoull(line.c_str() + pos, &end, 10));
        if (end == line.c_str() + pos) return false;
        pos = static_cast<std::size_t>(end - line.c_str());
        if (!skip_ws(line, pos)) return false;
        if (line[pos] == ',') {
          ++pos;
          if (!skip_ws(line, pos)) return false;
        }
      }
      ++pos;  // ']'
      out->arrays[key] = std::move(values);
    } else {
      const std::size_t start = pos;
      while (pos < line.size() && line[pos] != ',' && line[pos] != '}') ++pos;
      if (pos >= line.size()) return false;
      std::size_t end = pos;
      while (end > start &&
             std::isspace(static_cast<unsigned char>(line[end - 1]))) {
        --end;
      }
      out->scalars[key] = line.substr(start, end - start);
    }
    if (!skip_ws(line, pos)) return false;
    if (line[pos] == ',') {
      ++pos;
      continue;
    }
    if (line[pos] == '}') return true;
    return false;
  }
}

std::optional<u64> get_u64(const Fields& fields, const char* key) {
  auto it = fields.scalars.find(key);
  if (it == fields.scalars.end()) return std::nullopt;
  char* end = nullptr;
  const u64 value = std::strtoull(it->second.c_str(), &end, 10);
  if (end == it->second.c_str()) return std::nullopt;
  return value;
}

std::optional<f64> get_f64(const Fields& fields, const char* key) {
  auto it = fields.scalars.find(key);
  if (it == fields.scalars.end()) return std::nullopt;
  if (it->second == "null") return std::numeric_limits<f64>::quiet_NaN();
  char* end = nullptr;
  const f64 value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str()) return std::nullopt;
  return value;
}

std::optional<std::string> get_str(const Fields& fields, const char* key) {
  auto it = fields.scalars.find(key);
  if (it == fields.scalars.end()) return std::nullopt;
  return it->second;
}

Status Tail::poll(const LineFn& consume,
                  const std::function<void()>& restart) {
  auto start_over = [&] {
    if (offset_ == 0) return;  // nothing consumed, nothing to drop
    offset_ = 0;
    ++restarts_;
    if (restart) restart();
  };
  std::FILE* file = std::fopen(path_.c_str(), "rb");
  if (!file) {
    start_over();  // a vanished file keeps nothing it held
    return Status::not_found("cannot open " + path_);
  }
  const long size =
      std::fseek(file, 0, SEEK_END) == 0 ? std::ftell(file) : -1;
  if (size >= 0 && static_cast<u64>(size) < offset_) start_over();
  const u64 start = offset_;
  std::string data;
  if (size > static_cast<long>(start) &&
      std::fseek(file, static_cast<long>(start), SEEK_SET) == 0) {
    data.resize(static_cast<std::size_t>(size) - start);
    data.resize(std::fread(data.data(), 1, data.size(), file));
  }
  std::fclose(file);
  bytes_read_ += data.size();

  // A trailing partial line is left for the next poll. offset_ stays 0 until
  // a header is accepted: nothing before it is consumed, so a log recreated
  // in place is read from byte 0 however long it grows before the next poll.
  for (std::size_t pos = 0, newline;
       (newline = data.find('\n', pos)) != std::string::npos;
       pos = newline + 1) {
    if (newline > pos) {
      Status accepted = consume(data.substr(pos, newline - pos));
      if (!accepted.is_ok()) {
        if (offset_ == 0) return accepted;  // a rejected header
        if (newline + 1 == data.size()) break;  // torn tail: leave it
        return Status::internal(path_ + " is corrupt at byte " +
                                std::to_string(start + pos) + ": " +
                                accepted.message());
      }
    } else if (offset_ == 0) {
      continue;
    }
    offset_ = start + newline + 1;
  }
  return Status::ok();
}

Writer::~Writer() {
  if (file_) std::fclose(file_);
}

Result<std::unique_ptr<Writer>> Writer::open(const std::string& path,
                                             const char* mode,
                                             WriterSites sites) {
  std::FILE* file = std::fopen(path.c_str(), mode);
  if (!file) {
    return Status::internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  return std::unique_ptr<Writer>(new Writer(file, path, sites));
}

Result<std::unique_ptr<Writer>> Writer::create(const std::string& path,
                                               const std::string& header,
                                               WriterSites sites) {
  auto writer = open(path, "wb", sites);
  if (!writer.is_ok() || header.empty()) return writer;
  // Only append() evaluates failpoints: a header is never torn.
  const std::string line = header + "\n";
  std::FILE* file = writer.value()->file_;
  if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
      std::fflush(file) != 0) {
    return Status::internal("cannot write the header of " + path);
  }
  return writer;
}

Result<std::unique_ptr<Writer>> Writer::open_append(const std::string& path,
                                                    u64 valid_bytes,
                                                    WriterSites sites) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    return Status::internal("cannot truncate " + path + ": " + ec.message());
  }
  return open(path, "ab", sites);
}

Status Writer::append(const std::string& payload) {
  const std::string line = payload + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  if (sites_.append && fp::enabled()) {
    const fp::Hit f = fp::hit(sites_.append);
    if (f.action == fp::Action::kErr) {
      return Status::internal("append to " + path_ +
                              " failed: No space left on device [failpoint]");
    }
    if (f.action == fp::Action::kTorn) {
      // Model a crash mid-write: half the line reaches the disk, then the
      // process dies. Readers must leave this torn tail unconsumed and the
      // next open_append must cut it off.
      std::fwrite(line.data(), 1, line.size() / 2, file_);
      std::fflush(file_);
      std::_Exit(fp::kKillExitCode);
    }
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    return Status::internal("append to " + path_ + " failed: " +
                            std::strerror(errno));
  }
  if (sites_.flush && fp::enabled() &&
      fp::hit(sites_.flush).action == fp::Action::kErr) {
    return Status::internal("flush of " + path_ +
                            " failed: Input/output error [failpoint]");
  }
  return Status::ok();
}

Status replace_file(const std::string& path,
                    const std::function<bool(std::FILE*)>& write) {
  const std::string tmp = path + ".tmp-" + std::to_string(::getpid());
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (!file) {
    return Status::internal("cannot create " + tmp + ": " +
                            std::strerror(errno));
  }
  const bool written = write(file);
  std::error_code ec;
  if (std::fclose(file) == 0 && written) {
    std::filesystem::rename(tmp, path, ec);
    if (!ec) return Status::ok();
  }
  const std::string why = ec ? ec.message() : std::strerror(errno);
  std::filesystem::remove(tmp, ec);
  return Status::internal("cannot write " + path + ": " + why);
}

Status replace_file(const std::string& path, const std::string& content) {
  return replace_file(path, [&](std::FILE* file) {
    return std::fwrite(content.data(), 1, content.size(), file) ==
           content.size();
  });
}

}  // namespace gfi::jsonl
