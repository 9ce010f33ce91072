// Run-time CPU feature checks for the kernels that have a vector form.
//
// A kernel with an AVX2 form keeps its scalar form beside it and picks one
// per call with cpu_has_avx2(). Both forms give the same bytes (see
// DESIGN.md §9, "Vector kernels"), so the choice changes speed only; there
// is no option, environment variable or build flag to force either path.
#pragma once

namespace edgeis::rt {

/// True when this CPU (and its OS) runs AVX2 code. Checked once per
/// process; always false off x86-64.
inline bool cpu_has_avx2() noexcept {
#if defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

}  // namespace edgeis::rt
