// Central home for every performance-tuning constant of the tensor
// kernels. Two kinds of constants live here, with very different
// contracts:
//
//  * SIMD geometry (kLanes, kMatMulColTile). These fix the shape of the
//    hand-written fixed-width lane loops in lanes.h and tensor.cc, and
//    through them the *bitwise-determinism contract*: the
//    fixed-lane-strided reduction order of every vectorized kernel (see
//    DESIGN.md §12). Changing kLanes changes results and requires a
//    golden regeneration.
//
//  * Parallel dispatch thresholds. These only pick *which* of two
//    bit-identical execution strategies runs — serial vs chunked across
//    the pool — so changing them has no determinism impact.
#ifndef DEKG_TENSOR_TUNING_H_
#define DEKG_TENSOR_TUNING_H_

#include <cstdint>

namespace dekg::tune {

// Width of the fixed-lane accumulator blocks, in floats. 8 floats = one
// 256-bit vector register; the compiler maps each lane block to one AVX
// register (or two SSE ones) without the loop shape changing. Part of the
// determinism contract — see the header comment.
inline constexpr int64_t kLanes = 8;

// Column-tile width of MatMul's row kernel, which produces what its 4x8
// register blocks leave over (remainder rows and columns, and every
// single-row product) kMatMulColTile columns per pass over k. A multiple
// of kLanes. Per-element accumulation order is unchanged by this tiling
// (it only affects *which* elements are in flight together), so it is
// NOT part of the determinism contract — but it is compile-time because
// the full tile's constant trip count is what the vectorizer maps onto
// vector registers.
inline constexpr int64_t kMatMulColTile = 4 * kLanes;

// Elements below which elementwise ops stay serial.
inline constexpr int64_t kParallelElementwiseMin = 1 << 15;
// m*k*n below which MatMul stays serial.
inline constexpr int64_t kParallelMatMulMinFlops = 1 << 20;

}  // namespace dekg::tune

#endif  // DEKG_TENSOR_TUNING_H_
