// Campaign-wide metrics registry: named counters, gauges, and latency
// histograms, cheap enough to update from every injection worker thread.
//
// Design: handle acquisition (counter()/gauge()/histogram()) takes the
// registry mutex once and returns a stable reference; the hot-path update on
// that handle is a single relaxed atomic RMW (counters/gauges) or a short
// per-histogram critical section (latency observations, which sit next to a
// multi-millisecond simulation anyway). Instruments live for the life of the
// registry, so handles can be cached across a whole campaign.
//
// A Snapshot is a plain copyable value: it serializes to a single JSON
// object for `gpufi campaign --metrics-out=...` artifacts and merges
// across shards the same way journals do (counters add, gauges take the
// last-written value, histograms fold bin-by-bin with Chan-style moment
// combination via stats::RunningStats::merge).
#pragma once

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"
#include "common/types.h"

namespace gfi::obs {

/// Monotonic event count. Relaxed atomics: totals are read only at
/// snapshot/quiescent points, never used for synchronization.
class Counter {
 public:
  void inc(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] u64 value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<u64> value_{0};
};

/// Last-written instantaneous value (queue depth, progress fraction, ...).
class Gauge {
 public:
  void set(f64 v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] f64 value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<f64> value_{0.0};
};

/// Latency distribution: fixed-bin histogram (common/histogram.h) plus
/// Welford running moments (common/stats.h), updated together under one
/// mutex so snapshots are internally consistent.
class LatencyHistogram {
 public:
  LatencyHistogram(f64 lo, f64 hi, std::size_t bins,
                   Histogram::Scale scale = Histogram::Scale::kLinear)
      : histogram_(lo, hi, bins, scale) {}

  void observe(f64 value) {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.add(value);
    if (!std::isnan(value)) stats_.add(value);
  }

  /// Consistent (histogram, moments) copy.
  struct Sample {
    Histogram histogram;
    stats::RunningStats stats;
  };
  [[nodiscard]] Sample sample() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {histogram_, stats_};
  }

 private:
  mutable std::mutex mutex_;
  Histogram histogram_;
  stats::RunningStats stats_;
};

/// Point-in-time copy of a registry, detached from the live instruments.
struct Snapshot {
  struct HistogramSnapshot {
    f64 lo = 0.0;
    f64 hi = 0.0;
    Histogram::Scale scale = Histogram::Scale::kLinear;
    std::vector<f64> bin_counts;
    f64 dropped = 0.0;
    stats::RunningStats stats;
  };

  std::map<std::string, u64> counters;
  std::map<std::string, f64> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Folds `other` in: counters add, gauges keep the other's value when this
  /// snapshot lacks the name (shard gauges are per-shard, last one wins
  /// otherwise), histograms with identical bounds and scale fold
  /// bin-by-bin.
  void merge(const Snapshot& other);

  /// One pretty-printed JSON object (counters/gauges/histograms sections).
  [[nodiscard]] std::string to_json() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide default used when a campaign is not handed a registry.
  static Registry& global();

  /// Returns the instrument registered under `name`, creating it on first
  /// use. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `lo`/`hi`/`bins`/`scale` apply on first registration only.
  LatencyHistogram& histogram(
      const std::string& name, f64 lo, f64 hi, std::size_t bins,
      Histogram::Scale scale = Histogram::Scale::kLinear);

  [[nodiscard]] Snapshot snapshot() const;

  /// Drops every instrument (tests).
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace gfi::obs
