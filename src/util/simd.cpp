// simd.cpp — ISA detection and kernel dispatch (see simd.hpp).
//
// This TU is compiled without any -m flags so it runs on the oldest
// supported baseline; the variant kernels it points at live in TUs that
// carry their own target flags and are only entered after the feature
// probe below has confirmed the machine supports them.
#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace sfc::util::simd {

#if defined(SFCACD_SIMD_X86)
// Defined in simd_avx2.cpp (compiled with -mavx2 -mbmi2).
namespace avx2 {
void morton2_batch(const std::uint32_t*, std::uint64_t*, std::size_t);
void gray2_batch(const std::uint32_t*, std::uint64_t*, std::size_t);
void morton3_batch(const std::uint32_t*, std::uint64_t*, std::size_t);
void gray3_batch(const std::uint32_t*, std::uint64_t*, std::size_t);
void hilbert2_batch(const std::uint32_t*, std::uint64_t*, std::size_t,
                    unsigned, unsigned, const unsigned char*);
void moore2_batch(const std::uint32_t*, std::uint64_t*, std::size_t,
                  unsigned, const unsigned char*);
void key16_or_and(const unsigned char*, std::size_t, std::uint64_t*,
                  std::uint64_t*);
std::size_t nfi_halfwindow2(const std::int32_t*, unsigned, std::uint32_t,
                            std::uint32_t, std::uint32_t, bool,
                            std::int32_t*);
}  // namespace avx2
#endif

namespace {

// All-null table: every call site falls through to its scalar loop.
constexpr Kernels kScalarKernels{};

#if defined(SFCACD_SIMD_X86)
constexpr Kernels kAvx2Kernels{
    &avx2::morton2_batch, &avx2::gray2_batch,
    &avx2::morton3_batch, &avx2::gray3_batch,
    &avx2::hilbert2_batch, &avx2::moore2_batch,
    &avx2::key16_or_and,  &avx2::nfi_halfwindow2,
};

/// SFCACD_SIMD environment override: "off", "scalar", or "0" force the
/// portable path; anything else (including unset) keeps auto-detection.
bool env_forces_scalar() noexcept {
  const char* v = std::getenv("SFCACD_SIMD");
  if (v == nullptr) return false;
  return std::strcmp(v, "off") == 0 || std::strcmp(v, "scalar") == 0 ||
         std::strcmp(v, "0") == 0;
}
#endif

Isa detect_isa() noexcept {
#if defined(SFCACD_SIMD_X86)
  if (env_forces_scalar()) return Isa::kScalar;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2")) {
    return Isa::kAvx2Bmi2;
  }
#endif
  return Isa::kScalar;
}

const Kernels* table_for(Isa isa) noexcept {
#if defined(SFCACD_SIMD_X86)
  if (isa == Isa::kAvx2Bmi2) return &kAvx2Kernels;
#else
  (void)isa;
#endif
  return &kScalarKernels;
}

std::atomic<const Kernels*>& active_table() noexcept {
  static std::atomic<const Kernels*> table{table_for(active_isa())};
  return table;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2Bmi2:
      return "avx2+bmi2";
  }
  return "?";
}

Isa compiled_isa() noexcept {
#if defined(SFCACD_SIMD_X86)
  return Isa::kAvx2Bmi2;
#else
  return Isa::kScalar;
#endif
}

Isa active_isa() noexcept {
  static const Isa isa = detect_isa();
  return isa;
}

const Kernels& kernels() noexcept {
  return *active_table().load(std::memory_order_relaxed);
}

ScopedForceScalar::ScopedForceScalar() noexcept
    : saved_(active_table().exchange(&kScalarKernels,
                                     std::memory_order_relaxed)) {}

ScopedForceScalar::~ScopedForceScalar() {
  active_table().store(saved_, std::memory_order_relaxed);
}

}  // namespace sfc::util::simd
