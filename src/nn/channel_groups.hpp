// Lockstep reductions over channel planes. A per-channel sum is one serial
// chain of dependent adds, so a channel at a time runs at the add latency.
// Walking a group of channels side by side, one accumulator each, overlaps
// their chains while every channel still adds its own elements in the same
// order, so each sum keeps its bits.
#pragma once

#include <cstddef>
#include <type_traits>

namespace remapd {

/// Calls `group(width, c0)` over channels [0, c) in groups of W, then over
/// the leftover in groups of W/2, W/4, ..., 1. `width` is a
/// std::integral_constant, so a group's accumulators can be a fixed-size
/// array that the compiler keeps in registers.
template <std::size_t W, class F>
void for_channel_groups(std::size_t c, F&& group) {
  std::size_t c0 = 0;
  for (; c0 + W <= c; c0 += W)
    group(std::integral_constant<std::size_t, W>{}, c0);
  if constexpr (W > 1) {
    if (c0 < c)
      for_channel_groups<W / 2>(c - c0, [&](auto width, std::size_t c1) {
        group(width, c0 + c1);
      });
  }
}

}  // namespace remapd
