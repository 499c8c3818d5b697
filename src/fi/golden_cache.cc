#include "fi/golden_cache.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/jsonl.h"
#include "common/logging.h"
#include "fi/journal.h"

namespace gfi::fi {
namespace {

std::string hex(u64 value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

GoldenCache& GoldenCache::instance() {
  static GoldenCache cache;
  return cache;
}

std::string GoldenCache::key_for(const CampaignConfig& config) {
  const sim::MachineConfig& m = config.machine;
  std::ostringstream key;
  key << config.workload << '|' << m.name << '|' << m.num_sms << '|'
      << m.max_warps_per_sm << '|' << m.max_ctas_per_sm << '|'
      << m.regfile_words_per_sm << '|' << m.shared_bytes_per_sm << '|'
      << m.issue_width << '|' << m.global_mem_bytes << '|' << m.l2_bytes << '|'
      << m.mem_latency_cycles << '|' << m.shared_latency_cycles << '|'
      << m.sm_clock_ghz << '|' << static_cast<int>(m.dram_ecc) << '|'
      << static_cast<int>(m.rf_ecc) << '|' << (m.tensor_core_tf32 ? 1 : 0)
      << '|';
  for (int op = 0; op < sim::kOpcodeCount; ++op) {
    key << static_cast<int>(m.latencies.cycles[op]) << ',';
  }
  return key.str();
}

void GoldenCache::set_directory(std::string dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  directory_ = std::move(dir);
}

void GoldenCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

std::size_t GoldenCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t GoldenCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

Result<Campaign::Golden> GoldenCache::get_or_run(
    const CampaignConfig& config) {
  const std::string key = key_for(config);
  std::string directory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    directory = directory_;
  }

  // Named by the key's hash. Collisions are safe: the stored key is
  // compared before use.
  const std::string file_path =
      directory.empty()
          ? std::string()
          : directory + "/golden-" + hex(jsonl::fnv1a(key)) + ".json";
  if (!file_path.empty()) {
    std::ifstream file(file_path);
    if (file) {
      std::string line;
      std::getline(file, line);
      auto parsed = parse_golden_line(line);
      // Any disk-layer problem (stale format, hash collision, torn write)
      // degrades to recomputing the golden run — loudly, so an operator can
      // tell a corrupted cache from a cold one.
      if (parsed.is_ok() && parsed.value().first == key) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++hits_;
        entries_[key] = parsed.value().second;
        return std::move(parsed).take().second;
      }
      if (!parsed.is_ok()) {
        GFI_LOG(kWarn) << "golden cache entry " << file_path
                       << " is corrupt (" << parsed.status().message()
                       << "); discarding and recomputing";
      } else {
        GFI_LOG(kWarn) << "golden cache entry " << file_path
                       << " was written for a different campaign "
                          "(filename-hash collision or stale key); "
                          "recomputing";
      }
    }
  }

  auto golden = Campaign::golden_run(config);
  if (!golden.is_ok()) return golden.status();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    entries_[key] = golden.value();
  }
  if (!file_path.empty()) {
    // Persisting is best-effort: the entry is already in memory, so any
    // disk-layer failure (ENOSPC, read-only mount, permissions) degrades to
    // memory-only caching with one warning and no partial file left behind
    // — it must never error the campaign.
    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    const bool inject_fail =
        fp::enabled() &&
        fp::hit("golden_cache.persist").action == fp::Action::kErr;
    // Replaced whole so a concurrent shard never reads a torn entry.
    const std::string line = golden_line(key, golden.value()) + "\n";
    if (inject_fail || !jsonl::replace_file(file_path, line).is_ok()) {
      GFI_LOG(kWarn) << "golden cache: cannot persist " << file_path
                     << (inject_fail ? " [failpoint]" : "")
                     << "; continuing memory-only";
    }
  }
  return golden;
}

}  // namespace gfi::fi
