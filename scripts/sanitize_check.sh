#!/bin/sh
# Sanitizer gate for the parallel and checkpoint subsystems. Two sweeps:
#
#   thread            (-DDEKG_SANITIZE=thread)            data races in the
#                     thread pool, parallel evaluator, tensor kernels, the
#                     checkpoint format/resume paths, the shared training
#                     loop (DEKG-ILP, TACT and Neural LP on the pool), and
#                     the serving stack (connection threads + scheduler +
#                     engine)
#   address,undefined (-DDEKG_SANITIZE=address,undefined) memory and UB bugs
#                     in the same set plus the fork-heavy dataset-I/O fuzz
#                     and checkpoint death tests (fork/abort tests are kept
#                     out of the TSan sweep, which does not support them
#                     reliably)
#   optlevels         (no sanitizer) the fixed-lane determinism contract
#                     across optimization levels: simd_kernel_contract_test
#                     is built at -O0 and -O3 and the kernel fingerprints
#                     the two binaries emit must match bit for bit — the
#                     hand-written lane loops, not the optimizer, define
#                     the arithmetic order (DESIGN.md §12)
#
# Usage: scripts/sanitize_check.sh [thread|asan|optlevels|all]  (default: all)
# Build trees: build-tsan/, build-asan-ubsan/, build-o0/, build-o3/ (all
# gitignored).
set -e
cd "$(dirname "$0")/.."
MODE="${1:-all}"

# Tests built and run under every sanitizer.
COMMON_TESTS="thread_pool_test parallel_eval_determinism_test evaluator_test \
  tensor_test checkpoint_format_test checkpoint_resume_test \
  trainer_parallel_determinism_test subgraph_cache_test \
  serve_protocol_test live_graph_test touched_index_test \
  serve_determinism_test shard_routing_test snapshot_versioning_test \
  cache_patch_differential_test subgraph_sparse_property_test \
  gsm_batch_test simd_kernel_contract_test \
  baselines_test neural_lp_test rgcn_layer_op_test"
# Death-test / fork-based suites: address,undefined sweep only.
FORKY_TESTS="checkpoint_test dataset_io_fuzz_test"

run_suite() {
  BUILD_DIR="$1"
  SANITIZERS="$2"
  TESTS="$3"
  cmake -B "$BUILD_DIR" -S . -DDEKG_SANITIZE="$SANITIZERS"
  # shellcheck disable=SC2086
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target $TESTS
  for t in $TESTS; do
    echo "== $SANITIZERS: $t =="
    # Force real concurrency so races are reachable even where the default
    # pool would size itself to 1 on small machines.
    DEKG_NUM_THREADS=4 "$BUILD_DIR/tests/$t"
  done
}

if [ "$MODE" = "thread" ] || [ "$MODE" = "all" ]; then
  run_suite build-tsan thread "$COMMON_TESTS"
fi
if [ "$MODE" = "asan" ] || [ "$MODE" = "all" ]; then
  run_suite build-asan-ubsan address,undefined "$COMMON_TESTS $FORKY_TESTS"
fi

if [ "$MODE" = "optlevels" ] || [ "$MODE" = "all" ]; then
  for LEVEL in O0 O3; do
    BUILD_DIR="build-$(echo "$LEVEL" | tr 'A-Z' 'a-z')"
    cmake -B "$BUILD_DIR" -S . -DDEKG_OPT_LEVEL="-$LEVEL"
    cmake --build "$BUILD_DIR" -j "$(nproc)" --target simd_kernel_contract_test
    echo "== -$LEVEL: simd_kernel_contract_test =="
    DEKG_KERNEL_FINGERPRINT="$BUILD_DIR/kernel_fingerprint.txt" \
      "$BUILD_DIR/tests/simd_kernel_contract_test"
  done
  echo "== -O0 vs -O3 kernel fingerprint =="
  cat build-o0/kernel_fingerprint.txt build-o3/kernel_fingerprint.txt
  if ! cmp -s build-o0/kernel_fingerprint.txt build-o3/kernel_fingerprint.txt
  then
    echo "FAIL: kernel fingerprints differ between -O0 and -O3; the" >&2
    echo "fixed-lane contract no longer pins the arithmetic order" >&2
    echo "(check for FMA contraction or a reassociating flag)." >&2
    exit 1
  fi
fi
echo "Sanitize check ($MODE) passed."
