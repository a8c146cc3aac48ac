#!/bin/sh
# Single-entry CI gate, in increasing order of cost:
#
#   1. tier-1 build + ctest          (the correctness floor), then the
#                                     benchmark program (perfbench/),
#                                     which compiles against src/
#   2. vectorization check           (the SIMD kernels still auto-vectorize;
#                                     a scalar regression fails no test)
#   3. serve smoke                   (server binaries over real TCP: online
#                                     scores bit-for-bit vs offline golden,
#                                     before and after live ingestion, on
#                                     one engine and on a 3-shard router
#                                     with a pipelined client)
#   4. bench smoke                   (Release build; training determinism
#                                     and cache contracts, via bench_train,
#                                     the SIMD kernel bitwise gates via
#                                     bench_simd, extraction bitwise and
#                                     scaling gates via bench_extract,
#                                     and snapshot publication flat in
#                                     graph size via bench_churn)
#   5. sanitizer sweeps              (TSan + ASan/UBSan on the parallel,
#                                     checkpoint, and serving subsystems,
#                                     plus the O0-vs-O3 kernel fingerprint
#                                     diff)
#
# Usage: scripts/ci.sh [fast]
#   fast: skip the sanitizer sweeps (they rebuild two extra trees).
set -e
cd "$(dirname "$0")/.."
MODE="${1:-full}"

echo "== ci: tier-1 build + tests =="
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== ci: benchmark program build + tests =="
cmake -S perfbench -B build-perfbench
cmake --build build-perfbench -j "$(nproc)"
ctest --test-dir build-perfbench --output-on-failure

echo "== ci: vectorization check =="
scripts/vectorization_check.sh

echo "== ci: serve smoke =="
scripts/serve_smoke.sh build

echo "== ci: bench smoke =="
scripts/bench_smoke.sh

if [ "$MODE" != "fast" ]; then
  echo "== ci: sanitizers =="
  scripts/sanitize_check.sh all
fi

echo "CI ($MODE) passed."
