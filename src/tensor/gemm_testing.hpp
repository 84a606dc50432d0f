// Test-only control of the fp32 micro-kernel dispatch. Production code
// never calls these: the process picks the most capable variant its CPU
// runs at start-up (gemm_kernel_name()). Tests force each runnable variant
// in turn to check that they all produce the same bytes, so a variant this
// host would not dispatch is still exercised here.
#pragma once

#include <string>
#include <vector>

namespace remapd::gemm_testing {

/// The fp32 variants this CPU can run, in ascending dispatch preference:
/// "portable" always, then "avx2" where AVX2 and FMA are supported.
std::vector<std::string> supported_kernels();

/// Route every later packed GEMM through micro-kernel `name`. Returns the
/// variant in force before. Throws std::invalid_argument for an unknown
/// variant or one this CPU cannot run. Call it between products, never
/// while one is running.
std::string force_kernel(const std::string& name);

}  // namespace remapd::gemm_testing
