// In-memory span recorder for the traced benchmark run.
//
// Spans are opened around calls into one layer's public functions (the
// span name is "<layer>.<operation>"), kept in memory while the run
// measures, and written out once at the end, so recording costs one clock
// read and one vector append per boundary. Each span knows the span that
// was open when it started (its parent) and the injection it served, which
// is enough to compute per-layer self time: a span's duration minus the
// part covered by its children. Single-threaded by design: the traced run
// replays injections on one thread so that spans nest strictly.
//
// A Tracer built with record=false only times its scopes, so the same code
// measures in untraced runs without keeping spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    std::int64_t parent = -1;
    std::int64_t inj = -1;  ///< global injection index, -1 if none
  };

  /// Ends its span when it goes out of scope, or earlier via close().
  class Scope {
   public:
    Scope(Tracer& tracer, std::int64_t id)
        : tracer_(&tracer), id_(id), start_(Clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }

    /// Ends the span (idempotent); returns its duration in microseconds.
    double close() {
      if (tracer_ != nullptr) {
        const auto end = Clock::now();
        duration_us_ =
            std::chrono::duration<double, std::micro>(end - start_).count();
        if (id_ >= 0) tracer_->end(id_, end);
        tracer_ = nullptr;
      }
      return duration_us_;
    }

   private:
    Tracer* tracer_;
    std::int64_t id_;
    Clock::time_point start_;
    double duration_us_ = 0;
  };

  explicit Tracer(bool record) : record_(record) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Scope span(const char* name, std::int64_t inj = -1) {
    if (!record_) return Scope(*this, -1);
    Span s;
    s.name = name;
    s.start_us = us(Clock::now());
    s.parent = open_.empty() ? -1 : open_.back();
    s.inj = inj;
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::int64_t>(spans_.size() - 1);
    open_.push_back(id);
    return Scope(*this, id);
  }

  /// Self time per layer (the span name up to its first '.'), in ms.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      out[layer] += (s.end_us - s.start_us - child_us[i]) / 1e3;
    }
    return out;
  }

  /// Writes one JSON object per span.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"parent\":%lld,\"inj\":%lld}\n",
                   i, s.name.c_str(), s.start_us, s.end_us,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.inj));
    }
    return std::fclose(f) == 0;
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  void end(std::int64_t id, Clock::time_point when) {
    spans_[id].end_us = us(when);
    // Scopes end in LIFO order, but tolerate an out-of-order close.
    for (auto it = open_.end(); it != open_.begin();) {
      --it;
      if (*it == id) {
        open_.erase(it);
        break;
      }
    }
  }

  bool record_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace perfbench
