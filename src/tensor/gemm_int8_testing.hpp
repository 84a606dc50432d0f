// Test-only control of the int8 kernel dispatch. Production code never
// calls these: the process picks the most capable variant its CPU runs at
// start-up (int8_kernel_name()). Tests force each runnable variant in turn
// to check that they all produce the same bytes, so a variant this host
// would not dispatch is still exercised here.
#pragma once

#include <string>
#include <vector>

namespace remapd::int8_testing {

/// The int8 variants this CPU can run, in ascending dispatch preference:
/// "portable" always, then "avx2" and "avx512vnni" where supported.
std::vector<std::string> supported_kernels();

/// Route every later Int8APack::pack and multiply through variant `name`:
/// its micro-kernel and, for the x86 variants, the AVX2
/// quantize/pack/scan/dequant helpers ("portable" runs the scalar ones).
/// Returns the variant in force before. Throws std::invalid_argument for
/// an unknown variant or one this CPU cannot run. Call it between
/// products, never while one is running.
std::string force_kernel(const std::string& name);

}  // namespace remapd::int8_testing
