#include "sa/ace.h"

#include <algorithm>
#include <bit>

#include "sa/bitlive.h"

namespace gfi::sa {

using sim::DefUse;
using sim::Instr;
using sim::Opcode;

StaticSiteAnalysis StaticSiteAnalysis::analyze(const sim::Program& program) {
  StaticSiteAnalysis result;
  const auto& code = program.code();
  const sim::DecodedProgram& dec = program.decoded();
  const u32 n = static_cast<u32>(code.size());
  result.classes_.assign(n, SiteClass::kLive);
  result.strike_span_.assign(n, 0);
  result.strike_live_.assign(static_cast<std::size_t>(n) * kMaxStrikeSpan, 0);
  if (n == 0) return result;

  const Cfg cfg = Cfg::build(program);
  const Liveness live = Liveness::compute(program, cfg);
  const BitLiveness bits = BitLiveness::compute(program, cfg, live);

  for (u32 pc = 0; pc < n; ++pc) {
    const Instr& instr = code[pc];
    if (!is_value_site_group(dec.group(pc))) continue;

    SiteClass cls = SiteClass::kLive;
    if (instr.writes_pred()) {
      if (instr.dst.is_pred() && instr.dst.index < sim::kPredT) {
        // Bit-level predicate liveness refines the register-level result:
        // a predicate consumed only by dead computation is dead too.
        cls = bits.pred_live_out(pc, static_cast<u8>(instr.dst.index))
                  ? SiteClass::kLive
                  : SiteClass::kDead;
      } else {
        cls = SiteClass::kNoop;  // PT destination: set_pred drops the write
      }
    } else if (instr.op == Opcode::kHmma && instr.dst.is_reg() &&
               instr.dst.index == sim::kRegZ) {
      cls = SiteClass::kLive;  // never prune a degenerate RZ-fragment MMA
    } else if ((instr.writes_reg() || instr.op == Opcode::kHmma) &&
               instr.dst.is_reg()) {
      // strike_iov corrupts the full dst_reg_span() footprint; classify
      // each footprint register's bits via bit-liveness. Out-of-range
      // registers are unanalyzable and stay fully live.
      const u16 span = instr.dst_reg_span();
      result.strike_span_[pc] = span;
      bool any_live = false;
      bool any_dead = false;
      for (u16 s = 0; s < span; ++s) {
        const u16 r = static_cast<u16>(instr.dst.index + s);
        const u32 mask = r >= program.num_regs()
                             ? 0xffffffffu
                             : bits.reg_live_out_mask(pc, r);
        result.strike_live_[pc * kMaxStrikeSpan + s] = mask;
        any_live = any_live || mask != 0;
        any_dead = any_dead || mask != 0xffffffffu;
      }
      cls = !any_live ? SiteClass::kDead
                      : (any_dead ? SiteClass::kPartialDead : SiteClass::kLive);
    } else {
      // Nothing for the injector to corrupt: RZ-destination ALU/atomic/
      // load discards, ballot into RZ.
      cls = SiteClass::kNoop;
    }
    result.classes_[pc] = cls;
    if (cls == SiteClass::kDead) ++result.num_dead_pcs_;
    if (cls == SiteClass::kPartialDead) ++result.num_partial_pcs_;
  }
  return result;
}

u32 StaticSiteAnalysis::num_dead_bits(u32 pc) const {
  u32 dead = 0;
  for (u16 s = 0; s < strike_span_[pc]; ++s) {
    dead += static_cast<u32>(
        std::popcount(~strike_live_[pc * kMaxStrikeSpan + s]));
  }
  return dead;
}

const PruneEntry* PruneMap::find(sim::InstrGroup group, u64 occurrence) const {
  const auto& list = entries[static_cast<int>(group)];
  const auto it = std::lower_bound(
      list.begin(), list.end(), occurrence,
      [](const PruneEntry& e, u64 occ) { return e.occurrence < occ; });
  if (it == list.end() || it->occurrence != occurrence) return nullptr;
  return &*it;
}

u64 PruneMap::num_prunable() const {
  u64 total = 0;
  for (const auto& list : entries) total += list.size();
  return total;
}

void PruneMap::record(const sim::Program& program, const sim::SiteLog& log,
                      const sim::Profile& profile) {
  for (const sim::SiteLog::Event& event : log.events) {
    PruneEntry entry;
    entry.occurrence = event.occurrence;
    entry.dyn_index = event.dyn_index;
    entry.pc = event.pc;
    entry.exec_mask = event.exec_mask;
    entry.op = program.at(event.pc).op;
    entry.cls = analysis.site_class(event.pc);
    entries[static_cast<int>(event.group)].push_back(entry);
  }
  occurrences = profile.warp_instrs_by_group;
}

std::vector<u8> prune_watch(const sim::Program& program,
                            const StaticSiteAnalysis& analysis) {
  const sim::DecodedProgram& dec = program.decoded();
  std::vector<u8> watch(program.size(), sim::SiteLog::kSkip);
  for (u32 pc = 0; pc < watch.size(); ++pc) {
    if (!is_value_site_group(dec.group(pc))) continue;
    watch[pc] = analysis.site_class(pc) == SiteClass::kLive
                    ? sim::SiteLog::kIfNoLane
                    : sim::SiteLog::kAlways;
  }
  return watch;
}

}  // namespace gfi::sa
