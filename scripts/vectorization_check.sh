#!/bin/sh
# Auto-vectorization gate for the SIMD kernel layer (DESIGN.md §12). The
# lane kernels are deliberately plain fixed-width loops with no ISA
# intrinsics; the compiler is trusted to vectorize them. That trust is
# cheap to lose silently — one refactor that introduces an aliasing hazard
# or a non-countable loop and a kernel quietly drops back to scalar with
# no test failing. This script compiles each hot translation unit with
# -fopt-info-vec and fails if the number of vectorized loops falls below a
# floor recorded from the measured counts (see below; a compiler that
# counts differently needs its own re-measured floors).
#
# optimizer.cc is checked with -fvect-cost-model=dynamic, matching the
# per-source property in src/nn/CMakeLists.txt (the -O2 default
# "very-cheap" model refuses the fused span pass's epilogue loops).
#
# Usage: scripts/vectorization_check.sh
set -e
cd "$(dirname "$0")/.."

CXX="${CXX:-g++}"
BASE_FLAGS="-std=c++20 -O2 -ffp-contract=off -fno-math-errno -Isrc"

check_file() {
  FILE="$1"
  MIN="$2"
  EXTRA="$3"
  # shellcheck disable=SC2086
  COUNT=$("$CXX" $BASE_FLAGS $EXTRA -c "$FILE" -o /dev/null \
            -fopt-info-vec 2>&1 | grep -c "loop vectorized" || true)
  echo "$FILE: $COUNT vectorized loops (floor $MIN)"
  if [ "$COUNT" -lt "$MIN" ]; then
    echo "FAIL: $FILE vectorizes $COUNT loops, expected at least $MIN." >&2
    echo "A kernel likely regressed to scalar; diff -fopt-info-vec-missed" >&2
    echo "output against the floors in scripts/vectorization_check.sh." >&2
    exit 1
  fi
}

# Measured on g++ 12.2: 9 / 16 / 6, and every floor is the measured
# count, so any one loop going scalar fails. tensor.cc: eight lanes.h
# loops inlined into its kernels, plus MatMul's constant-width full
# column tile, which every single-row product (the CLRM rows the serve
# snapshot computes at start-up) runs on. MatMul's 4x8 register block is
# written with explicit generic vectors, which -fopt-info-vec does not
# report; tests/simd_kernel_contract_test.cc (bit equality with the
# historical kernel) and the -O0/-O3 kernel fingerprint of
# scripts/sanitize_check.sh guard it instead. optimizer.cc: Adam's
# blocked update loop is one of its six loops (the epilogue is two
# more). message_kernels.cc: the R-GCN layer backward's lane loops (the
# recomputed mix, the gated row, the dT_b and attention scatters) are
# eleven of its sixteen.
check_file src/tensor/tensor.cc 9 ""
check_file src/gnn/message_kernels.cc 16 ""
check_file src/nn/optimizer.cc 6 "-fvect-cost-model=dynamic"

echo "Vectorization check passed."
