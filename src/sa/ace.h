// ACE-style injection-site pruning (SASSIFI's "dead destination" class),
// at register and bit granularity.
//
// A value-group injection site whose entire strike footprint is dead at the
// strike point is provably Masked: the injector flips bits the program never
// reads again, so the launch's architectural trace from that point on is
// identical to the fault-free run. Bit-liveness (sa/bitlive.h) extends the
// same argument to individual bits: a site whose footprint is only
// partially dead (kPartialDead) carries a live-bit mask, and a sampled
// single/double flip landing exclusively on dead bits is Masked too. The
// campaign can skip those simulations and credit the records analytically,
// keeping outcome tables bit-identical to an unpruned run on the same
// seeds.
//
// The classification is static (per pc); the PruneMap adds the dynamic side:
// which (group, occurrence) pairs — the coordinates the injector samples —
// land on a prunable pc, recorded natively (sim::SiteLog, watched per
// prune_watch) during one hook-free fault-free launch.
#pragma once

#include <array>
#include <vector>

#include "sa/cfg.h"
#include "sa/dataflow.h"
#include "sassim/profiler.h"
#include "sassim/program.h"

namespace gfi::sa {

/// Static classification of one pc as an IOV/PRED injection destination.
enum class SiteClass : u8 {
  kLive,         ///< strike may be read downstream — must be simulated
  kDead,         ///< strike footprint fully dead — provably Masked
  kNoop,         ///< injector has nothing to corrupt (e.g. RZ-dst atomic)
  kPartialDead,  ///< some strike bits dead (bitlive.h): a single/double
                 ///< flip landing only on dead bits is provably Masked;
                 ///< anything touching a live bit must be simulated
};

/// Groups whose sites the value-injection modes (IOV destination-value and
/// PRED predicate-flip) can target: everything except Control and Store.
/// Cross-checked against fi::mode_targets_group in tests.
[[nodiscard]] inline bool is_value_site_group(sim::InstrGroup group) {
  return group != sim::InstrGroup::kControl &&
         group != sim::InstrGroup::kStore;
}

/// Per-pc site classes for a program, from register- and bit-level liveness
/// over the CFG. Register-writing sites additionally carry a live-bit mask
/// per strike-footprint register so the campaign can classify individual
/// sampled (site, bit) coordinates.
class StaticSiteAnalysis {
 public:
  /// Strike footprints span at most HMMA's 4-register D fragment.
  static constexpr u16 kMaxStrikeSpan = 4;

  static StaticSiteAnalysis analyze(const sim::Program& program);

  [[nodiscard]] SiteClass site_class(u32 pc) const { return classes_[pc]; }
  [[nodiscard]] std::size_t size() const { return classes_.size(); }
  /// Static pcs classified kDead among value-group instructions.
  [[nodiscard]] u32 num_dead_pcs() const { return num_dead_pcs_; }
  /// Static pcs classified kPartialDead among value-group instructions.
  [[nodiscard]] u32 num_partial_pcs() const { return num_partial_pcs_; }

  /// Registers in the strike footprint of `pc` (0 for non-reg-strike pcs).
  [[nodiscard]] u16 strike_span(u32 pc) const { return strike_span_[pc]; }
  /// Live bits of footprint register `s` (offset from the dst base) at
  /// `pc`. Bits NOT set are provably dead: flipping them after `pc`
  /// executes cannot change the launch's architectural trace.
  [[nodiscard]] u32 strike_live_mask(u32 pc, u16 s) const {
    return strike_live_[pc * kMaxStrikeSpan + s];
  }
  /// True when footprint bit `bit` (0 .. strike_span*32) of `pc` is
  /// provably dead — the (site, bit) coordinate a single-bit flip strikes.
  [[nodiscard]] bool strike_bit_dead(u32 pc, u32 bit) const {
    return ((strike_live_mask(pc, static_cast<u16>(bit / 32)) >>
             (bit % 32)) & 1u) == 0;
  }
  /// Dead bits in the whole footprint of `pc` (0 for pred writers/kNoop).
  [[nodiscard]] u32 num_dead_bits(u32 pc) const;

 private:
  std::vector<SiteClass> classes_;
  std::vector<u16> strike_span_;
  std::vector<u32> strike_live_;  ///< [pc * kMaxStrikeSpan + s]
  u32 num_dead_pcs_ = 0;
  u32 num_partial_pcs_ = 0;
};

/// One prunable (or bit-prunable) dynamic site, addressed the way the
/// injector samples: the `occurrence`-th dynamic instruction of `group`.
/// kPartialDead entries are recorded at every dynamic occurrence; whether a
/// given sampled flip can actually be credited is decided per injection
/// against the pc's strike_live_mask.
struct PruneEntry {
  u64 occurrence = 0;  ///< per-group dynamic index (injector coordinates)
  u64 dyn_index = 0;   ///< global dynamic warp-instruction counter
  u32 pc = 0;
  u32 exec_mask = 0;   ///< lanes that executed (0 = fully guarded off)
  sim::Opcode op = sim::Opcode::kNop;
  SiteClass cls = SiteClass::kLive;
};

/// Dynamic map of prunable sites for one (workload, arch) program, plus the
/// fault-free check outcome needed to credit dead sites analytically. The
/// golden check is against the CPU reference, so a dead strike reproduces
/// exactly the golden comparison — not necessarily a bitwise match.
struct PruneMap {
  StaticSiteAnalysis analysis;
  /// Per-group prunable entries, sorted by occurrence.
  std::array<std::vector<PruneEntry>, sim::kInstrGroupCount> entries{};
  /// Per-group total dynamic occurrences seen in the fault-free run.
  std::array<u64, sim::kInstrGroupCount> occurrences{};
  /// Fault-free check outcome (vs CPU reference) of the mapped launch.
  bool golden_bitwise_equal = true;
  f64 golden_max_rel_err = 0.0;

  /// The prunable entry at (group, occurrence), or nullptr when that site
  /// must be simulated.
  [[nodiscard]] const PruneEntry* find(sim::InstrGroup group,
                                       u64 occurrence) const;
  /// Total prunable sites across groups.
  [[nodiscard]] u64 num_prunable() const;

  /// Fills `entries` from the site log of one fault-free launch of
  /// `program` watched per prune_watch(), and `occurrences` from the same
  /// launch's profile.
  void record(const sim::Program& program, const sim::SiteLog& log,
              const sim::Profile& profile);
};

/// Watch bytes (sim::SiteLog::watch) under which a fault-free launch logs
/// exactly the PruneMap's sites: every instance of a value-group pc not
/// classified kLive, and the instances of a kLive one that no lane executes
/// (the injector never activates there).
[[nodiscard]] std::vector<u8> prune_watch(const sim::Program& program,
                                          const StaticSiteAnalysis& analysis);

}  // namespace gfi::sa
