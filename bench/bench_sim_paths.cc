// Hook-free vs instrumented-path simulator throughput.
//
// The tiered engine promises that a hook-free launch — the clean tier:
// predecoded instructions and SIMD row kernels — is substantially faster
// than the instrumented inner loop it replaced. This bench measures both
// sides on the same workloads — the instrumented side via
// EngineTier::kInstrumented, which preserves the pre-refactor
// per-instruction semantics with an empty hook vector — writes
// BENCH_sim.json, and exits 1 when the geomean hook-free speedup drops
// below the 1.5x CI gate. It takes no arguments (any exits 2).
//
// Measurement is noise-hardened: each workload runs several alternating
// hook-free/instrumented trials and each side keeps its best trial rate, so
// frequency drift or a transient neighbor hits both sides alike instead
// of deciding the gate.
//
// GFI_BENCH_MIN_MS=<n> sets the per-workload time floor (default 300).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/simd.h"
#include "sassim/device.h"
#include "workloads/workload.h"

namespace {

using namespace gfi;

constexpr double kGateSpeedup = 1.5;
constexpr int kTrials = 3;

// The empty-hook inner-loop throughput of the engine before the decode/
// execute split (bench_perf_sim, gemm on the A100 model, this machine
// class): the acceptance reference the hook-free path must beat by >= 2x.
constexpr double kPreRefactorGemmRate = 2.168e6;

double min_ms() {
  if (const char* env = std::getenv("GFI_BENCH_MIN_MS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<double>(parsed);
  }
  return 300.0;
}

struct Bench {
  sim::Device device;
  std::unique_ptr<wl::Workload> workload;
  wl::LaunchSpec spec;

  explicit Bench(const std::string& name, const sim::MachineConfig& machine)
      : device(machine), workload(wl::make_workload(name)) {
    if (!workload) {
      std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
      std::exit(1);
    }
    auto setup = workload->setup(device);
    if (!setup.is_ok()) {
      std::fprintf(stderr, "setup failed for '%s': %s\n", name.c_str(),
                   setup.status().to_string().c_str());
      std::exit(1);
    }
    spec = setup.value();
  }

  /// One timed window of launches on `tier` (kAuto: hook-free clean);
  /// returns warp-instrs/sec.
  double timed_window(sim::EngineTier tier, double window_s) {
    sim::LaunchOptions options;
    options.engine = tier;
    u64 instrs = 0;
    u64 launches = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      auto launch = device.launch(workload->program(), spec.grid, spec.block,
                                  spec.params, options);
      if (!launch.is_ok() || !launch.value().ok()) {
        std::fprintf(stderr, "launch failed\n");
        std::exit(1);
      }
      instrs += launch.value().dyn_warp_instrs;
      ++launches;
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
    } while (elapsed < window_s || launches < 2);
    return static_cast<double>(instrs) / elapsed;
  }
};

struct PathRates {
  double clean = 0.0;  ///< the hook-free side
  double instrumented = 0.0;

  [[nodiscard]] double speedup() const {
    return instrumented > 0.0 ? clean / instrumented : 0.0;
  }
};

PathRates measure(const std::string& name, const sim::MachineConfig& machine) {
  Bench bench(name, machine);
  // Warm-up: decode cache + allocator.
  (void)bench.timed_window(sim::EngineTier::kAuto, 0.0);
  const double window_s = min_ms() / 1e3 / (2 * kTrials);
  PathRates best;
  for (int trial = 0; trial < kTrials; ++trial) {
    best.clean = std::max(
        best.clean, bench.timed_window(sim::EngineTier::kAuto, window_s));
    best.instrumented = std::max(
        best.instrumented,
        bench.timed_window(sim::EngineTier::kInstrumented, window_s));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument '%s'\n", argv[1]);
    return 2;
  }

  // gemm dominates (deep FP inner loop); the others add divergence-, guard-,
  // and memory-heavy instruction mixes so neither path gets a shape it
  // happens to like.
  const std::vector<std::string> workloads = {"gemm", "scan", "reduce_u32",
                                              "saxpy"};
  const sim::MachineConfig machine = arch::a100();

  std::printf("Simulator path throughput (A100 model, hook-free launches)\n");
  std::printf("simd backend: %s\n", simd::backend());
  std::printf("%-12s %15s %15s %9s\n", "workload", "hook-free (wi/s)",
              "instrumented", "speedup");

  std::string rows;
  double log_speedup_sum = 0.0;
  double gemm_clean = 0.0;
  for (const std::string& name : workloads) {
    const PathRates rates = measure(name, machine);
    std::printf("%-12s %15.0f %15.0f %8.2fx\n", name.c_str(), rates.clean,
                rates.instrumented, rates.speedup());
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"workload\": \"%s\", \"clean_warp_instrs_per_sec\": "
                  "%.0f, \"instrumented_warp_instrs_per_sec\": %.0f, "
                  "\"speedup\": %.3f},\n",
                  name.c_str(), rates.clean, rates.instrumented,
                  rates.speedup());
    rows += row;
    log_speedup_sum += std::log(rates.speedup());
    if (name == "gemm") gemm_clean = rates.clean;
  }
  if (!rows.empty()) rows.erase(rows.size() - 2, 1);  // trailing comma

  const double geomean =
      std::exp(log_speedup_sum / static_cast<double>(workloads.size()));
  const double vs_pre_refactor = gemm_clean / kPreRefactorGemmRate;
  std::printf("%-12s %31s %8.2fx  (gate: >= %.1fx)\n", "geomean", "",
              geomean, kGateSpeedup);
  std::printf("gemm hook-free path vs pre-refactor empty-hook loop: %.2fx\n",
              vs_pre_refactor);

  FILE* out = std::fopen("BENCH_sim.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot write BENCH_sim.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"sim_paths\",\n  \"arch\": \"%s\",\n"
               "  \"simd\": \"%s\",\n"
               "  \"engine\": \"clean\",\n"
               "  \"workloads\": [\n%s  ],\n"
               "  \"geomean_speedup\": %.3f,\n"
               "  \"gate_speedup\": %.1f,\n"
               "  \"gemm_clean_warp_instrs_per_sec\": %.0f,\n"
               "  \"gemm_pre_refactor_empty_hook_warp_instrs_per_sec\": %.0f,\n"
               "  \"gemm_clean_speedup_vs_pre_refactor\": %.3f\n}\n",
               machine.name.c_str(), simd::backend(), rows.c_str(), geomean,
               kGateSpeedup, gemm_clean, kPreRefactorGemmRate, vs_pre_refactor);
  std::fclose(out);

  if (geomean < kGateSpeedup) {
    std::fprintf(stderr,
                 "FAIL: hook-free speedup %.2fx below the %.1fx gate\n",
                 geomean, kGateSpeedup);
    return 1;
  }
  std::printf("OK: hook-free path is %.2fx the instrumented inner loop\n",
              geomean);
  return 0;
}
