#include "fi/lease.h"

#include <chrono>
#include <filesystem>
#include <fstream>

#include "common/jsonl.h"

namespace gfi::fi {
namespace {

constexpr const char* kMagic = "gpufi-lease-v1";

}  // namespace

u64 unix_now_ms() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string lease_path_for_journal(const std::string& journal_path) {
  return journal_path + ".lease";
}

std::string lease_line(const Lease& lease) {
  std::string out = "{";
  jsonl::append_str(out, "lease", kMagic);
  jsonl::append_str(out, "owner", lease.owner);
  jsonl::append_u64(out, "pid", lease.pid);
  jsonl::append_u64(out, "shard", lease.shard);
  jsonl::append_u64(out, "expires_ms", lease.expires_ms);
  out += '}';
  return out;
}

Result<Lease> parse_lease(const std::string& line) {
  jsonl::Fields fields;
  if (!jsonl::parse_fields(line, &fields)) {
    return Status::internal("lease: not a JSON object");
  }
  if (jsonl::get_str(fields, "lease").value_or("") != kMagic) {
    return Status::internal("lease: wrong magic");
  }
  auto owner = jsonl::get_str(fields, "owner");
  auto pid = jsonl::get_u64(fields, "pid");
  auto shard = jsonl::get_u64(fields, "shard");
  auto expires = jsonl::get_u64(fields, "expires_ms");
  if (!owner || !pid || !shard || !expires) {
    return Status::internal("lease: missing required field");
  }
  Lease lease;
  lease.owner = *owner;
  lease.pid = *pid;
  lease.shard = static_cast<u32>(*shard);
  lease.expires_ms = *expires;
  return lease;
}

Result<Lease> read_lease(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::not_found("no lease at " + path);
  std::string line;
  std::getline(file, line);
  auto parsed = parse_lease(line);
  if (!parsed.is_ok()) {
    return Status::internal("lease " + path + " is corrupt: " +
                            parsed.status().message());
  }
  return parsed;
}

Status acquire_lease(const std::string& path, const Lease& lease,
                     u64 now_ms) {
  auto current = read_lease(path);
  if (current.is_ok()) {
    const Lease& held = current.value();
    if (held.owner != lease.owner && held.expires_ms > now_ms) {
      return Status::failed_precondition(
          "shard " + std::to_string(lease.shard) + " is leased by " +
          held.owner + " for another " +
          std::to_string(held.expires_ms - now_ms) + "ms");
    }
    // Expired or ours: fall through and (re)take it.
  } else if (current.status().code() == StatusCode::kInternal) {
    // Corrupt lease: a torn rename should be impossible, so treat the file
    // as hostile and refuse — the TTL path cannot save us without a
    // readable expiry, but an operator can delete the file.
    return current.status();
  }
  return jsonl::replace_file(path, lease_line(lease) + "\n");
}

Status release_lease(const std::string& path, const std::string& owner) {
  auto current = read_lease(path);
  if (!current.is_ok()) {
    if (current.status().code() == StatusCode::kNotFound) return Status::ok();
    return current.status();
  }
  if (current.value().owner != owner &&
      current.value().expires_ms > unix_now_ms()) {
    return Status::failed_precondition(
        "lease " + path + " is held by " + current.value().owner +
        ", not " + owner);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    return Status::internal("cannot remove lease " + path + ": " +
                            ec.message());
  }
  return Status::ok();
}

}  // namespace gfi::fi
