// Fixed-bin histogram with ASCII bar rendering, used for figure-style
// benches (bit-position sensitivity, SDC severity distributions) and, on a
// log scale, for campaign latency metrics.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace gfi {

class Histogram {
 public:
  /// How bin edges divide [lo, hi): equal widths, or equal ratios (log-
  /// spaced, for latencies spanning decades; needs 0 < lo).
  enum class Scale : u8 { kLinear, kLog };

  /// `bins` bins over [lo, hi); values outside are clamped to edge bins.
  Histogram(f64 lo, f64 hi, std::size_t bins, Scale scale = Scale::kLinear);

  /// Adds a sample. NaN values are never binned (they go to dropped());
  /// out-of-range and non-finite values clamp to the edge bins (on a log
  /// scale, so do zero and negative values); a degenerate range (lo == hi)
  /// puts every sample in bin 0.
  void add(f64 value, f64 weight = 1.0);

  [[nodiscard]] Scale scale() const { return scale_; }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] f64 bin_lo(std::size_t bin) const;
  [[nodiscard]] f64 bin_hi(std::size_t bin) const;
  [[nodiscard]] f64 count(std::size_t bin) const { return counts_[bin]; }
  [[nodiscard]] f64 total() const { return total_; }
  /// Weight of NaN samples rejected by add().
  [[nodiscard]] f64 dropped() const { return dropped_; }

  /// ASCII bar chart, one line per bin, bars scaled to `width` characters.
  [[nodiscard]] std::string to_ascii(std::size_t width = 50) const;

 private:
  f64 lo_;
  f64 hi_;
  Scale scale_;
  std::vector<f64> counts_;
  f64 total_ = 0.0;
  f64 dropped_ = 0.0;
};

}  // namespace gfi
