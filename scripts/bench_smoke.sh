#!/bin/sh
# Fast benchmark smoke gate: a Release build of bench_train on a tiny
# synthetic dataset. bench_train exits nonzero when any of its hard
# contracts fail — parallel training not bitwise identical to serial,
# cached losses diverging from uncached, the sparse optimizer diverging
# from dense, or the subgraph-cache hit rate dropping below 99% after
# epoch 1 — so this script doubles as a determinism check, not just a
# does-it-run probe. Wall-clock numbers are printed but never gated.
#
# Usage: scripts/bench_smoke.sh
# Build tree: build-release/ (gitignored). Scale/threads can be tuned via
# DEKG_BENCH_SCALE / DEKG_BENCH_THREADS; the defaults keep this under a
# couple of minutes on one core.
set -e
cd "$(dirname "$0")/.."

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$(nproc)" --target bench_train bench_gsm_batch bench_simd \
  bench_extract bench_churn

# Small dataset, explicit thread count: the point is the bitwise
# serial-vs-parallel comparison, not throughput.
cd build-release/bench
DEKG_BENCH_SCALE="${DEKG_BENCH_SCALE:-0.25}" \
DEKG_BENCH_THREADS="${DEKG_BENCH_THREADS:-4}" \
  ./bench_train

# Packed-batch GSM scoring: every (group cap, threads) point is gated on
# bitwise identity with sequential scoring; speedups are reported, not
# gated.
DEKG_BENCH_SCALE="${DEKG_BENCH_SCALE:-0.25}" \
DEKG_BENCH_THREADS="${DEKG_BENCH_THREADS:-4}" \
  ./bench_gsm_batch

# SIMD kernel sweep: every micro-kernel point is gated on bitwise identity
# with the historical scalar kernel (or the fixed-lane contract reference
# for the n == 1 dot column), and both end-to-end points on thread-count
# invariance; speedups are reported, not gated.
DEKG_BENCH_SCALE="${DEKG_BENCH_SCALE:-0.25}" \
DEKG_BENCH_THREADS="${DEKG_BENCH_THREADS:-4}" \
  ./bench_simd

# Extraction scaling sweep (entities x hops): every point is gated on the
# sparse output-sensitive path being bitwise identical to the dense
# reference, plus hard gates on >=5x per-extraction speedup at 1e5+
# entities / 2 hops and on sublinear growth in num_entities at fixed
# subgraph size. The smoke run trims the sweep to 1e5 entities to stay
# fast; the full 1e6 point runs when DEKG_BENCH_EXTRACT_MAX_N is raised.
DEKG_BENCH_EXTRACT_MAX_N="${DEKG_BENCH_EXTRACT_MAX_N:-100000}" \
  ./bench_extract

# Snapshot-publication sweep: times SnapshotWriter::Ingest on E = 2V
# random graphs and hard-gates flatness in V (batch 64: largest V within
# 2x of 1e4). The smoke run trims it to 1e5 entities; the full 1e6 point
# runs when DEKG_BENCH_CHURN_MAX_V is raised.
DEKG_BENCH_CHURN_MAX_V="${DEKG_BENCH_CHURN_MAX_V:-100000}" \
  ./bench_churn
echo "Bench smoke passed (BENCH_train.json, BENCH_gsm_batch.json, BENCH_simd.json, BENCH_extract.json, BENCH_churn.json in build-release/bench/)."
