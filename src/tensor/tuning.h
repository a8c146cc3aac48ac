// Central home for every performance-tuning constant of the tensor
// kernels. Two kinds of knobs live here, with very different contracts:
//
//  * Compile-time SIMD geometry (kLanes, kMatMulColTile). These fix the
//    shape of the hand-written fixed-width lane loops in lanes.h and
//    tensor.cc, and through them the *bitwise-determinism contract*: the
//    fixed-lane-strided reduction order of every vectorized kernel (see
//    DESIGN.md §12). Changing them changes results and requires a golden
//    regeneration — which is why they are macros resolved at compile time
//    and deliberately NOT env-tunable.
//
//  * Runtime dispatch thresholds (parallel cutoffs). These only pick
//    *which* of two bit-identical execution strategies runs — serial vs
//    chunked across the pool — so they are safe to tune per machine via
//    environment variables without any determinism impact. Each is read
//    once on first use and cached for the life of the process.
//
//      DEKG_TUNE_PARALLEL_ELEMENTWISE_MIN  elements below which
//                                          elementwise ops stay serial
//                                          (default 32768)
//      DEKG_TUNE_PARALLEL_MATMUL_MIN_FLOPS m*k*n below which MatMul stays
//                                          serial (default 1048576)
#ifndef DEKG_TENSOR_TUNING_H_
#define DEKG_TENSOR_TUNING_H_

#include <cstdint>

namespace dekg::tune {

// Width of the fixed-lane accumulator blocks, in floats. 8 floats = one
// 256-bit vector register; the compiler maps each lane block to one AVX
// register (or two SSE ones) without the loop shape changing. Part of the
// determinism contract — see the header comment.
#ifndef DEKG_LANES
#define DEKG_LANES 8
#endif
inline constexpr int64_t kLanes = DEKG_LANES;

// Column-tile width of the register-blocked MatMul kernel: each output
// row is produced kMatMulColTile columns at a time with the running sums
// held in registers across the whole k loop. A multiple of kLanes; 4
// lanes ≈ half the 16 vector registers of baseline x86-64, leaving room
// for the b-row stream. Per-element accumulation order is unchanged by
// this tiling (it only affects *which* elements are in flight together),
// so it is NOT part of the determinism contract — but it is compile-time
// because the kernel's register allocation depends on it.
inline constexpr int64_t kMatMulColTile = 4 * kLanes;

// Default values of the runtime thresholds (exposed for tests and docs).
inline constexpr int64_t kDefaultParallelElementwiseMin = 1 << 15;
inline constexpr int64_t kDefaultParallelMatMulMinFlops = 1 << 20;

// Cached env-overridable getters for the runtime thresholds. Invalid or
// non-positive override strings fall back to the default (with a warning
// once), so a typo can never disable a kernel entirely.
int64_t ParallelElementwiseMin();   // DEKG_TUNE_PARALLEL_ELEMENTWISE_MIN
int64_t ParallelMatMulMinFlops();   // DEKG_TUNE_PARALLEL_MATMUL_MIN_FLOPS

}  // namespace dekg::tune

#endif  // DEKG_TENSOR_TUNING_H_
