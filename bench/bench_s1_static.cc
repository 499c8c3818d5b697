// R-S1 (static analysis): static masked-fraction lower bound vs measured
// masked rate, and how many injections pruning statically-dead sites
// credits without simulating. For each arch x workload we build the
// PruneMap once, then run the same seeded IOV campaign twice — simulating
// every injection vs crediting dead/inert sites analytically — and require
// the outcome tables to be identical. Every column is deterministic, so the
// committed CSV regenerates byte for byte.
#include "bench_util.h"

#include "analysis/static_bound.h"
#include "harden/swift.h"
#include "sa/ace.h"

int main() {
  using namespace gfi;
  // SWIFT variants carry the bulk of the statically-dead sites (duplicated
  // computation whose detector values the checker never consumes), so the
  // suite includes them alongside the base kernels.
  harden::register_hardened_workloads();
  benchx::banner("R-S1",
                 "Static dead-site lower bound vs dynamic masked rate");

  Table table("IOV single-bit: static bound, measured rate, pruned count");
  table.set_header({"arch", "workload", "eligible", "dead%", "inert%",
                    "static_lb", "dyn_masked", "pruned"});

  bool mismatch = false;
  bool bound_violation = false;
  const std::pair<const char*, sim::MachineConfig> archs[] = {
      {"a100", arch::a100()}, {"h100", arch::h100()}};
  for (const auto& [arch_name, machine] : archs) {
    for (const std::string& workload : benchx::suite()) {
      auto base = benchx::base_config(workload, machine);

      auto map = fi::Campaign::build_prune_map(base);
      if (!map.is_ok()) {
        std::fprintf(stderr, "%s/%s: prune map failed: %s\n", arch_name,
                     workload.c_str(), map.status().to_string().c_str());
        return 1;
      }
      const auto bound = analysis::static_masked_bound(
          map.value(), base.model.mode, base.group);

      auto unpruned = benchx::must_run(base);
      auto pruned_config = base;
      pruned_config.prune_dead_sites = true;
      auto pruned = benchx::must_run(pruned_config);

      if (pruned.outcome_counts != unpruned.outcome_counts) {
        std::fprintf(stderr,
                     "SOUNDNESS VIOLATION: %s/%s pruned and unpruned outcome "
                     "tables differ\n",
                     arch_name, workload.c_str());
        mismatch = true;
      }
      // Masked + MaskedTolerated: dead-site strikes never reach an output,
      // so they classify as whichever of the two the golden check reports.
      const f64 dyn_masked = unpruned.rate(fi::Outcome::kMasked) +
                             unpruned.rate(fi::Outcome::kMaskedTolerated);
      if (bound.masked_lower_bound() > dyn_masked + 1e-12) {
        std::fprintf(stderr,
                     "BOUND VIOLATION: %s/%s static %.4f > dynamic %.4f\n",
                     arch_name, workload.c_str(), bound.masked_lower_bound(),
                     dyn_masked);
        bound_violation = true;
      }

      const f64 eligible = static_cast<f64>(bound.eligible);
      table.add_row(
          {arch_name, workload, std::to_string(bound.eligible),
           Table::pct(eligible == 0 ? 0.0 : static_cast<f64>(bound.dead) /
                                                eligible),
           Table::pct(eligible == 0 ? 0.0 : static_cast<f64>(bound.inert) /
                                                eligible),
           Table::pct(bound.masked_lower_bound()), Table::pct(dyn_masked),
           std::to_string(pruned.pruned)});
    }
  }
  benchx::emit(table, "r_s1_static");
  std::printf(
      "Expected shape: static_lb <= dyn_masked for every row (dead sites are\n"
      "a provable subset of masked injections); pruned grows with the\n"
      "dead+inert fraction, since those injections skip simulation entirely.\n");
  if (mismatch || bound_violation) return 1;
  return 0;
}
