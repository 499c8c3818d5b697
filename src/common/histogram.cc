#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace gfi {

Histogram::Histogram(f64 lo, f64 hi, std::size_t bins, Scale scale)
    : lo_(lo), hi_(hi), scale_(scale), counts_(bins == 0 ? 1 : bins, 0.0) {}

void Histogram::add(f64 value, f64 weight) {
  // NaN has no bin: casting it to an integer is UB, and silently counting it
  // anywhere would skew the distribution. It lands in a drop counter the
  // caller can surface instead.
  if (std::isnan(value)) {
    dropped_ += weight;
    return;
  }
  // Clamp in the f64 domain BEFORE the integer cast: a far-out-of-range
  // value (or the +-inf that lo_ == hi_ produces via the zero-span divide)
  // would overflow ptrdiff_t in the cast, which is UB.
  f64 pos = 0.0;
  if (scale_ == Scale::kLog) {
    // value <= lo_ (zero and negatives included) stays in bin 0 rather
    // than taking the log of a non-positive ratio.
    if (hi_ > lo_ && value > lo_) {
      pos = std::log(value / lo_) / std::log(hi_ / lo_) *
            static_cast<f64>(counts_.size());
    }
  } else if (hi_ > lo_) {
    pos = (value - lo_) / (hi_ - lo_) * static_cast<f64>(counts_.size());
  }
  pos = std::clamp(pos, 0.0, static_cast<f64>(counts_.size() - 1));
  counts_[static_cast<std::size_t>(pos)] += weight;
  total_ += weight;
}

f64 Histogram::bin_lo(std::size_t bin) const {
  if (bin == 0) return lo_;
  if (bin >= counts_.size()) return hi_;
  const f64 n = static_cast<f64>(counts_.size());
  if (scale_ == Scale::kLog) {
    return lo_ * std::pow(hi_ / lo_, static_cast<f64>(bin) / n);
  }
  return lo_ + (hi_ - lo_) * static_cast<f64>(bin) / n;
}

f64 Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

std::string Histogram::to_ascii(std::size_t width) const {
  const f64 max_count = *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    char label[64];
    std::snprintf(label, sizeof(label), "[%9.3g, %9.3g)", bin_lo(b), bin_hi(b));
    std::size_t bar = 0;
    if (max_count > 0) {
      bar = static_cast<std::size_t>(counts_[b] / max_count *
                                     static_cast<f64>(width));
    }
    out << label << " " << std::string(bar, '#') << " " << counts_[b] << "\n";
  }
  return out.str();
}

}  // namespace gfi
