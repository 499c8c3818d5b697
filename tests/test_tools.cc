// Tests for the tooling layer: instruction tracer, XID mapping, the
// statistical comparison helpers, the strict CLI value parsers, and the
// real gpufi binary's flag validation.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <utility>

#include "analysis/compare.h"
#include "arch/arch.h"
#include "sassim/tracer.h"
#include "sassim/xid.h"
#include "sim_test_util.h"
#include "tools/cli_args.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

using gfi::Dim3;
using sim::Device;
using sim::KernelBuilder;
using sim::Operand;
using sim::TracerHook;
using sim_test::must;

sim::Program tiny_kernel() {
  KernelBuilder b("tiny");
  b.mov_u32(2, Operand::imm_u(1));
  b.iadd_u32(2, Operand::reg(2), Operand::imm_u(2));
  b.exit_();
  return must(b);
}

TEST(Tracer, RecordsEveryInstructionInOrder) {
  Device device(arch::toy());
  TracerHook tracer;
  sim::LaunchOptions options;
  options.hooks.push_back(&tracer);
  auto launch = device.launch(tiny_kernel(), Dim3(1), Dim3(32), {}, options);
  ASSERT_TRUE(launch.is_ok());
  ASSERT_EQ(tracer.entries().size(), 3u);
  EXPECT_EQ(tracer.entries()[0].op, sim::Opcode::kMov);
  EXPECT_EQ(tracer.entries()[1].op, sim::Opcode::kIAdd);
  EXPECT_EQ(tracer.entries()[2].op, sim::Opcode::kExit);
  for (u64 i = 0; i < 3; ++i) EXPECT_EQ(tracer.entries()[i].dyn_index, i);
  EXPECT_EQ(tracer.seen(), 3u);
  EXPECT_FALSE(tracer.truncated());
}

TEST(Tracer, FiltersByGroupAndWarp) {
  Device device(arch::toy());
  TracerHook tracer;
  tracer.set_filter(TracerHook::only_group(sim::InstrGroup::kControl));
  sim::LaunchOptions options;
  options.hooks.push_back(&tracer);
  auto launch = device.launch(tiny_kernel(), Dim3(1), Dim3(64), {}, options);
  ASSERT_TRUE(launch.is_ok());
  // Only the two warps' EXITs survive the filter.
  EXPECT_EQ(tracer.entries().size(), 2u);
  EXPECT_EQ(tracer.seen(), 6u);

  tracer.clear();
  tracer.set_filter(TracerHook::only_warp(0, 1));
  (void)device.launch(tiny_kernel(), Dim3(1), Dim3(64), {}, options);
  EXPECT_EQ(tracer.entries().size(), 3u);
  for (const auto& entry : tracer.entries()) EXPECT_EQ(entry.warp, 1u);
}

TEST(Tracer, WindowFilterAndTruncation) {
  Device device(arch::toy());
  TracerHook tracer(/*max_entries=*/2);
  tracer.set_filter(TracerHook::window(0, 5));
  sim::LaunchOptions options;
  options.hooks.push_back(&tracer);
  (void)device.launch(tiny_kernel(), Dim3(4), Dim3(32), {}, options);
  EXPECT_EQ(tracer.entries().size(), 2u);
  EXPECT_TRUE(tracer.truncated());
  EXPECT_NE(tracer.to_string().find("truncated"), std::string::npos);
}

TEST(Xid, TrapMapping) {
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kEccDoubleBit), 48);
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kIllegalGlobalAddress), 31);
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kIllegalSharedAddress), 31);
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kWatchdogTimeout), 8);
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kNone), 0);
}

TEST(Xid, LogLineLooksLikeDmesg) {
  sim::Trap trap;
  trap.kind = sim::TrapKind::kEccDoubleBit;
  trap.address = 0x1234;
  const std::string line = sim::xid_log_line(trap);
  EXPECT_NE(line.find("NVRM: Xid"), std::string::npos);
  EXPECT_NE(line.find("48"), std::string::npos);
  EXPECT_NE(line.find("Double Bit ECC"), std::string::npos);
  EXPECT_TRUE(sim::xid_log_line(sim::Trap{}).empty());
}

// -------------------------------------------------------------- compare --

TEST(Compare, IdenticalProportionsNotSignificant) {
  const auto test = analysis::two_proportion_z(50, 100, 50, 100);
  EXPECT_DOUBLE_EQ(test.p1, 0.5);
  EXPECT_DOUBLE_EQ(test.p2, 0.5);
  EXPECT_NEAR(test.z, 0.0, 1e-12);
  EXPECT_FALSE(test.significant());
}

TEST(Compare, LargeDifferenceSignificant) {
  const auto test = analysis::two_proportion_z(80, 100, 20, 100);
  EXPECT_TRUE(test.significant(0.01));
  EXPECT_GT(test.z, 5.0);
  EXPECT_LT(test.p_value, 1e-6);
}

TEST(Compare, SmallSampleSameDifferenceNotSignificant) {
  const auto test = analysis::two_proportion_z(3, 10, 1, 10);
  EXPECT_FALSE(test.significant());
}

TEST(Compare, DegenerateInputs) {
  EXPECT_FALSE(analysis::two_proportion_z(0, 0, 5, 10).significant());
  EXPECT_FALSE(analysis::two_proportion_z(0, 10, 0, 10).significant());
  EXPECT_FALSE(analysis::two_proportion_z(10, 10, 10, 10).significant());
}

TEST(Compare, ComposedRateWeightsByMix) {
  sim::Profile profile;
  profile.total_warp_instrs = 100;
  profile.warp_instrs_by_group[static_cast<int>(sim::InstrGroup::kFp32)] = 75;
  profile.warp_instrs_by_group[static_cast<int>(sim::InstrGroup::kInt)] = 25;

  analysis::GroupRates rates;
  rates.set(sim::InstrGroup::kFp32, 0.4);
  rates.set(sim::InstrGroup::kInt, 0.8);
  EXPECT_NEAR(analysis::composed_rate(profile, rates), 0.5, 1e-12);

  // Unknown groups are excluded from the covered population.
  analysis::GroupRates partial;
  partial.set(sim::InstrGroup::kFp32, 0.4);
  EXPECT_NEAR(analysis::composed_rate(profile, partial), 0.4, 1e-12);
}

TEST(Compare, ComposedRateEmptyProfile) {
  sim::Profile profile;
  analysis::GroupRates rates;
  EXPECT_EQ(analysis::composed_rate(profile, rates), 0.0);
}

// ------------------------------------------------------------ cli_args --
//
// Campaign flag lines must be replayable verbatim, so a value either parses
// completely or the flag is rejected — no strtoull "10k means 10" leniency.

TEST(CliArgs, ParseU64AcceptsWholeStringsOnly) {
  EXPECT_EQ(cli::parse_u64("0"), 0u);
  EXPECT_EQ(cli::parse_u64("42"), 42u);
  EXPECT_EQ(cli::parse_u64("18446744073709551615"), ~0ULL);
  EXPECT_EQ(cli::parse_u64("0x1f", 0), 0x1fu);  // base 0: hex seeds

  EXPECT_FALSE(cli::parse_u64(""));
  EXPECT_FALSE(cli::parse_u64("10k"));
  EXPECT_FALSE(cli::parse_u64("abc"));
  EXPECT_FALSE(cli::parse_u64("-1"));
  EXPECT_FALSE(cli::parse_u64("+5"));
  EXPECT_FALSE(cli::parse_u64(" 7"));
  EXPECT_FALSE(cli::parse_u64("18446744073709551616"));  // 2^64: ERANGE
  EXPECT_FALSE(cli::parse_u64("0x1f"));  // hex needs base 0
}

TEST(CliArgs, ParseU32EnforcesRange) {
  EXPECT_EQ(cli::parse_u32("4294967295"), 0xffffffffu);
  EXPECT_FALSE(cli::parse_u32("4294967296"));
  EXPECT_FALSE(cli::parse_u32("99999999999999"));
  EXPECT_FALSE(cli::parse_u32("12x"));
}

TEST(CliArgs, ParseShardValidatesIndexAgainstCount) {
  auto shard = cli::parse_shard("2/8");
  ASSERT_TRUE(shard.has_value());
  EXPECT_EQ(shard->index, 2u);
  EXPECT_EQ(shard->count, 8u);
  EXPECT_TRUE(cli::parse_shard("0/1").has_value());

  EXPECT_FALSE(cli::parse_shard("3/2"));   // index >= count
  EXPECT_FALSE(cli::parse_shard("2/2"));   // index == count
  EXPECT_FALSE(cli::parse_shard("0/0"));   // zero shards
  EXPECT_FALSE(cli::parse_shard("abc/2"));
  EXPECT_FALSE(cli::parse_shard("1/x"));
  EXPECT_FALSE(cli::parse_shard("12"));    // no slash
  EXPECT_FALSE(cli::parse_shard("/4"));
  EXPECT_FALSE(cli::parse_shard("1/"));
  EXPECT_FALSE(cli::parse_shard("-1/4"));
  EXPECT_FALSE(cli::parse_shard("1/4/2"));  // trailing garbage
}

/// Runs the gpufi binary (GFI_GPUFI_BIN) with `args` in the test's temp
/// directory; returns its exit code and its stdout and stderr together.
std::pair<int, std::string> run_gpufi(const std::string& args) {
  const std::string cmd = "cd '" + ::testing::TempDir() + "' && '" +
                          GFI_GPUFI_BIN + "' " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out += buffer;
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(GpufiCli, EngineTakesOnlyAutoOrInstrumented) {
  for (const char* tier : {"threaded", "clean"}) {
    const auto [code, out] = run_gpufi(
        std::string("campaign vecadd --arch=toy --injections=2 --engine=") +
        tier);
    EXPECT_EQ(code, 2) << tier << ": " << out;
    EXPECT_NE(out.find("bad --engine"), std::string::npos) << out;
    EXPECT_NE(out.find("usage: gpufi"), std::string::npos) << out;
  }
  for (const char* tier : {"auto", "instrumented"}) {
    const auto [code, out] = run_gpufi(
        std::string("campaign vecadd --arch=toy --injections=2 --engine=") +
        tier);
    EXPECT_EQ(code, 0) << tier << ": " << out;
  }
}

}  // namespace
}  // namespace gfi
