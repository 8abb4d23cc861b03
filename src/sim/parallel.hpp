// Shared parallelism tuning for the simulator kernels.
//
// One place for the amplitude-group threshold and grain so every kernel
// (state-vector gates, Pauli expectations) parallelizes consistently.
// Reductions built on these constants combine fixed-grain chunks in index
// order (util::parallel_reduce), so results for a given state size are
// bit-identical regardless of thread count — load-bearing for bit-exact
// training resume.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/thread_pool.hpp"

namespace qnn::sim {

/// Kernels fan out on the shared pool once the per-call work item count
/// clears this; below it, thread hand-off costs more than the loop.
constexpr std::size_t kParallelThreshold = std::size_t{1} << 14;

/// Work items per chunk handed to one pool lane.
constexpr std::size_t kKernelGrain = std::size_t{1} << 12;

/// The pool to use for a kernel over `work_items`, or nullptr (serial).
inline util::ThreadPool* kernel_pool(std::size_t work_items) {
  return work_items >= kParallelThreshold ? &util::global_pool() : nullptr;
}

/// True when `x` has an odd number of set bits. Baseline x86-64 has no
/// POPCNT instruction, so a bare std::popcount is a libgcc call
/// (__popcountdi2), paid once per amplitude by the parity and Pauli
/// kernels. GCC compiles `popcount % 2` to an inline xor fold that ends
/// in the parity flag, shorter than a portable shift-and-xor fold. So
/// the kernels test parities here, on one mask, and never add counts.
inline bool odd_parity(std::uint64_t x) { return std::popcount(x) % 2 != 0; }

}  // namespace qnn::sim
