#!/bin/sh
# End-to-end smoke test of the online scoring server (DESIGN.md §9),
# exercising the real binaries over a real TCP socket:
#
#   1. generate a small synthetic dataset and train a 2-epoch checkpoint
#   2. print the offline golden scores (dekg_serve --print-golden)
#   3. serve the full graph on an ephemeral port; client scores must match
#      the golden file BIT FOR BIT (diff on %.17g text)
#   4. serve the train graph only (--no-emerging), stream the emerging
#      triples through ingest-emerging, and require the post-ingest scores
#      to also match the golden file bit for bit — the live-ingestion
#      convergence contract
#   5. the sharded variant of stage 4: 3 shard engines (--shards 3) and a
#      pipelined client (--pipeline 4), pre-ingest scores differing from
#      the golden and post-ingest scores matching it bit for bit — the
#      consistent-hash fan-in and connection pipelining change nothing.
#      Each shard caches at most 4 subgraphs (--cache 4), so served
#      requests evict while ingest maintains the cache
#   6. out-of-range flags (--port, --cache, --batch, --shards,
#      --max-entities below the base graph's entity count) must each
#      exit 2 before serving, writing no port file
#
# Usage: scripts/serve_smoke.sh [build_dir]   (default: build)
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

DATA="$WORK/data"
CKPT="$WORK/model.ckpt"
LINKS=20

echo "== serve smoke: dataset + checkpoint =="
"$BUILD/examples/dekg_cli" generate "$DATA" --scale 0.3 --seed 7
"$BUILD/examples/dekg_cli" train "$DATA" "$CKPT" --epochs 2 --dim 16

echo "== serve smoke: offline golden scores =="
"$BUILD/tools/dekg_serve" "$DATA" "$CKPT" --dim 16 \
  --print-golden "$LINKS" > "$WORK/golden.txt"

wait_port_file() {
  i=0
  while [ ! -s "$1" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "server did not write $1" >&2; exit 1; }
    sleep 0.1
  done
}

echo "== serve smoke: full-graph server, bitwise vs offline =="
"$BUILD/tools/dekg_serve" "$DATA" "$CKPT" --dim 16 \
  --port-file "$WORK/port1" &
SERVER_PID=$!
wait_port_file "$WORK/port1"
PORT="$(cat "$WORK/port1")"
"$BUILD/tools/dekg_serve_client" "$PORT" score "$DATA" --links "$LINKS" \
  > "$WORK/online.txt"
diff "$WORK/golden.txt" "$WORK/online.txt"
echo "bitwise match (full graph)"
"$BUILD/tools/dekg_serve_client" "$PORT" shutdown
wait "$SERVER_PID"
SERVER_PID=""

echo "== serve smoke: --no-emerging server + live ingestion =="
"$BUILD/tools/dekg_serve" "$DATA" "$CKPT" --dim 16 --no-emerging \
  --port-file "$WORK/port2" &
SERVER_PID=$!
wait_port_file "$WORK/port2"
PORT="$(cat "$WORK/port2")"
# Pre-ingest scores come from the train-only graph: they are expected to
# differ from the golden file (the emerging structure is missing).
"$BUILD/tools/dekg_serve_client" "$PORT" score "$DATA" --links "$LINKS" \
  > "$WORK/pre_ingest.txt"
if diff -q "$WORK/golden.txt" "$WORK/pre_ingest.txt" > /dev/null; then
  echo "pre-ingest scores unexpectedly equal the full-graph golden" >&2
  exit 1
fi
"$BUILD/tools/dekg_serve_client" "$PORT" ingest-emerging "$DATA" --chunk 32
"$BUILD/tools/dekg_serve_client" "$PORT" score "$DATA" --links "$LINKS" \
  > "$WORK/post_ingest.txt"
diff "$WORK/golden.txt" "$WORK/post_ingest.txt"
echo "bitwise match (after live ingestion)"
"$BUILD/tools/dekg_serve_client" "$PORT" stats > /dev/null
"$BUILD/tools/dekg_serve_client" "$PORT" shutdown
wait "$SERVER_PID"
SERVER_PID=""

echo "== serve smoke: 3-shard server, pipelined client, live ingestion =="
"$BUILD/tools/dekg_serve" "$DATA" "$CKPT" --dim 16 --no-emerging --shards 3 \
  --cache 4 --port-file "$WORK/port3" &
SERVER_PID=$!
wait_port_file "$WORK/port3"
PORT="$(cat "$WORK/port3")"
"$BUILD/tools/dekg_serve_client" "$PORT" score "$DATA" --links "$LINKS" \
  --pipeline 4 > "$WORK/shard_pre_ingest.txt"
if diff -q "$WORK/golden.txt" "$WORK/shard_pre_ingest.txt" > /dev/null; then
  echo "sharded pre-ingest scores unexpectedly equal the golden" >&2
  exit 1
fi
"$BUILD/tools/dekg_serve_client" "$PORT" ingest-emerging "$DATA" --chunk 32
"$BUILD/tools/dekg_serve_client" "$PORT" score "$DATA" --links "$LINKS" \
  --pipeline 4 > "$WORK/shard_post_ingest.txt"
diff "$WORK/golden.txt" "$WORK/shard_post_ingest.txt"
echo "bitwise match (3 shards, pipeline depth 4, after live ingestion)"
"$BUILD/tools/dekg_serve_client" "$PORT" stats > /dev/null
"$BUILD/tools/dekg_serve_client" "$PORT" shutdown
wait "$SERVER_PID"
SERVER_PID=""

echo "== serve smoke: out-of-range flags exit 2 =="
# The 0.3-scale world has far more than 10 entities. timeout turns a
# server that starts anyway into a failure instead of a hang.
for BAD in "--port 70000" "--port -1" "--cache -1" "--batch 0" \
    "--shards 0" "--max-entities 10"; do
  rm -f "$WORK/bad_port"
  STATUS=0
  # shellcheck disable=SC2086
  timeout 60 "$BUILD/tools/dekg_serve" "$DATA" "$CKPT" --dim 16 $BAD \
    --port-file "$WORK/bad_port" 2> "$WORK/bad_flag.err" || STATUS=$?
  if [ "$STATUS" -ne 2 ] || [ -e "$WORK/bad_port" ]; then
    echo "dekg_serve $BAD: exit $STATUS, expected 2 with no port file" >&2
    cat "$WORK/bad_flag.err" >&2
    exit 1
  fi
  echo "$BAD: exit 2: $(cat "$WORK/bad_flag.err")"
done

echo "Serve smoke passed."
