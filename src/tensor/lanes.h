// Fixed-width lane primitives — the SIMD substrate of the tensor kernels
// and THE definition of the repository's bitwise-determinism contract for
// reductions (DESIGN.md §12).
//
// Every loop here is a hand-written fixed-width lane loop: a main loop
// over whole blocks of tune::kLanes elements with per-lane accumulators,
// followed by an explicit scalar tail. No ISA intrinsics — the loops are
// shaped so the compiler's auto-vectorizer maps each lane block onto
// vector registers (scripts/vectorization_check.sh asserts that it does).
// Because the loop shape, not the optimizer, fixes the arithmetic order,
// results are bit-identical across -O0/-O3, thread counts, and batch
// sizes (the build also pins -ffp-contract=off so no FMA contraction can
// reassociate a lane).
//
// The reduction contract, spelled once and for all (LaneDotF32):
//
//   blocks   = n / kLanes                     (truncating)
//   acc[l]   = sum over b in [0, blocks) of a[b*kLanes + l] * c[b*kLanes + l]
//              accumulated b-ascending        (l in [0, kLanes))
//   total    = ((acc[0] + acc[1]) + acc[2]) + ... + acc[kLanes - 1]
//   total   += a[i] * c[i] for i in [blocks*kLanes, n), i-ascending
//
// For n < kLanes there are no blocks and the lane reduction contributes
// an exact +0.0f, so short reductions are bit-identical to the plain
// sequential loop — which is why small dot products (e.g. the per-edge
// basis-coefficient selectors) kept their historical values when this
// contract replaced strict left-to-right order.
//
// Double-accumulator variants follow the same order with the products
// widened to double before accumulation, matching the historical
// double-accumulation kernels (Dot, RowNorms, SumRows) lane for lane.
//
// Order-preserving helpers (LaneAddF32, LaneScaleF32) have no cross-lane
// reduction at all: each output element sees the exact same float
// expression as the scalar loop they replace, so they are bit-identical
// to their pre-SIMD versions and never show up in a golden diff.
#ifndef DEKG_TENSOR_LANES_H_
#define DEKG_TENSOR_LANES_H_

#include <cstdint>

#include "tensor/tuning.h"

namespace dekg::lanes {

using tune::kLanes;

// total = sum_i a[i] * c[i] under the fixed-lane contract above.
inline float LaneDotF32(const float* a, const float* c, int64_t n) {
  const int64_t blocked = n - n % kLanes;
  float acc[kLanes] = {0.0f};
  for (int64_t i = 0; i < blocked; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) acc[l] += a[i + l] * c[i + l];
  }
  float total = acc[0];
  for (int64_t l = 1; l < kLanes; ++l) total += acc[l];
  for (int64_t i = blocked; i < n; ++i) total += a[i] * c[i];
  return total;
}

// Same contract with double accumulators (products widened to double).
inline double LaneDotF64(const float* a, const float* c, int64_t n) {
  const int64_t blocked = n - n % kLanes;
  double acc[kLanes] = {0.0};
  for (int64_t i = 0; i < blocked; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) {
      acc[l] += static_cast<double>(a[i + l]) * c[i + l];
    }
  }
  double total = acc[0];
  for (int64_t l = 1; l < kLanes; ++l) total += acc[l];
  for (int64_t i = blocked; i < n; ++i) {
    total += static_cast<double>(a[i]) * c[i];
  }
  return total;
}

// total = sum_i a[i], double accumulators, same lane order.
inline double LaneSumF64(const float* a, int64_t n) {
  const int64_t blocked = n - n % kLanes;
  double acc[kLanes] = {0.0};
  for (int64_t i = 0; i < blocked; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) acc[l] += a[i + l];
  }
  double total = acc[0];
  for (int64_t l = 1; l < kLanes; ++l) total += acc[l];
  for (int64_t i = blocked; i < n; ++i) total += a[i];
  return total;
}

// total = sum_i a[i]^2, double accumulators, same lane order.
inline double LaneSumSquaresF64(const float* a, int64_t n) {
  return LaneDotF64(a, a, n);
}

// ----- Order-preserving lane loops (bit-identical to their scalar
// ancestors; vectorization-friendly shape only) -----

// dst[i] += a[i]
inline void LaneAddF32(float* dst, const float* a, int64_t n) {
  const int64_t blocked = n - n % kLanes;
  for (int64_t i = 0; i < blocked; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) dst[i + l] += a[i + l];
  }
  for (int64_t i = blocked; i < n; ++i) dst[i] += a[i];
}

// dst[i] *= s
inline void LaneScaleF32(float* dst, float s, int64_t n) {
  const int64_t blocked = n - n % kLanes;
  for (int64_t i = 0; i < blocked; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) dst[i + l] *= s;
  }
  for (int64_t i = blocked; i < n; ++i) dst[i] *= s;
}

}  // namespace dekg::lanes

#endif  // DEKG_TENSOR_LANES_H_
