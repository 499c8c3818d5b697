// custom_kernel: author your own SASS-like kernel with KernelBuilder, run
// it on the simulated H100, disassemble it, profile its instruction mix,
// and strike a fault into it by hand with the injector — the full public
// API surface in ~100 lines.
//
//   $ ./examples/custom_kernel
#include <cmath>
#include <cstdio>
#include <vector>

#include "arch/arch.h"
#include "fi/injector.h"
#include "sassim/device.h"
#include "sassim/kernel_builder.h"
#include "sassim/profiler.h"

using namespace gfi;
using sim::Operand;

int main() {
  // Kernel: out[i] = relu(a * in[i] + b) over one 256-thread block.
  sim::KernelBuilder b("relu_affine");
  b.s2r(0, sim::SpecialReg::kTidX);
  b.ldc_u64(2, 0);   // in
  b.ldc_u64(4, 1);   // out
  b.ldc_u32(6, 2);   // a (f32 bits)
  b.ldc_u32(7, 3);   // b (f32 bits)
  b.imad_wide(8, Operand::reg(0), Operand::imm_u(4), Operand::reg(2));
  b.ldg(12, 8);
  b.ffma_f32(13, Operand::reg(6), Operand::reg(12), Operand::reg(7));
  b.fmnmx_f32(14, Operand::reg(13), Operand::imm_f32(0.0f), sim::MinMax::kMax);
  b.imad_wide(8, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
  b.stg(8, 14);
  b.exit_();

  auto program = b.build();
  if (!program.is_ok()) {
    std::fprintf(stderr, "%s\n", program.status().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", program.value().disassemble().c_str());

  // Run it on the H100 model.
  sim::Device device(arch::h100());
  const u32 n = 256;
  auto in = device.malloc_n<f32>(n);
  auto out = device.malloc_n<f32>(n);
  std::vector<f32> host(n);
  for (u32 i = 0; i < n; ++i) host[i] = static_cast<f32>(i) - 128.0f;
  (void)device.to_device<f32>(in.value(), host);

  const u64 params[] = {in.value(), out.value(), f32_bits(0.5f),
                        f32_bits(3.0f)};

  sim::Profile profile;
  sim::LaunchOptions options;
  options.profile = &profile;
  auto launch = device.launch(program.value(), Dim3(1), Dim3(n), params,
                              options);
  std::printf("clean run: %llu warp instrs, %llu cycles (%.2f us on %s)\n",
              static_cast<unsigned long long>(launch.value().dyn_warp_instrs),
              static_cast<unsigned long long>(launch.value().cycles),
              launch.value().time_us(device.config()),
              device.config().name.c_str());
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const u64 count = profile.warp_instrs_by_group[g];
    if (count > 0) {
      std::printf("  %-9s %llu\n",
                  sim::group_name(static_cast<sim::InstrGroup>(g)),
                  static_cast<unsigned long long>(count));
    }
  }

  // Now strike the FFMA output of warp-instruction occurrence 0, lane 12,
  // sign bit — by hand, no campaign machinery.
  fi::FaultSite site;
  site.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kFp32Fma;
  site.target_occurrence = 0;
  site.lane_sel = 12;
  site.bit_sel = 31;  // FP32 sign
  fi::InjectorHook injector(site, device.config());
  sim::LaunchOptions fi_options;
  fi_options.hooks.push_back(&injector);
  (void)device.launch(program.value(), Dim3(1), Dim3(n), params, fi_options);

  std::vector<f32> result(n);
  (void)device.to_host(std::span<f32>(result), out.value());
  std::printf("\ninjected sign flip at %s\n", site.to_string().c_str());
  for (u32 i = 10; i < 15; ++i) {
    const f32 want = std::fmax(0.5f * host[i] + 3.0f, 0.0f);
    std::printf("  out[%u] = %8.2f (clean would be %8.2f)%s\n", i, result[i],
                want, result[i] != want ? "   <-- corrupted" : "");
  }
  return 0;
}
