#!/usr/bin/env bash
# worker_kill_smoke.sh — kill one of two stms-serve workers while it is
# running a cell of a coordinator matrix, then check that the matrix
# recovered and that its export is byte-identical to the same matrix
# run undisturbed in process.
#
# Usage:
#   scripts/worker_kill_smoke.sh chaos    # SIGTERM a token-protected worker
#   scripts/worker_kill_smoke.sh resume   # SIGKILL a checkpointing worker
#
# chaos: the coordinator must report at least one retry. resume: both
# workers checkpoint every 50000 records into one shared disk tier (the
# store's -tape-dir), the victim dies only once every cell in flight has
# a checkpoint on disk, and the coordinator must report at least one
# cell resumed mid-run: the survivor finds the dead worker's checkpoint
# in the shared tier and resumes from it.
#
# The victim is whichever worker's GET /healthz first reports a job in
# flight: rendezvous routing may send every cell to one worker. The
# cells are long enough (about 0.5 s each on a 2-vCPU host) to outlive
# the poll. Scratch files go to a fresh temporary directory, removed on
# exit unless the smoke fails.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-}
case "$mode" in
chaos) ports=(19501 19502) ;;
resume) ports=(19601 19602) ;;
*)
  echo "usage: $0 chaos|resume" >&2
  exit 2
  ;;
esac

tmp=$(mktemp -d)
pids=()
cleanup() {
  status=$?
  for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
  if [ "$status" -eq 0 ]; then rm -rf "$tmp"; else echo "worker_kill_smoke: scratch kept in $tmp" >&2; fi
}
trap cleanup EXIT

go build -o "$tmp/stms-serve" ./cmd/stms-serve
matrix=(-workloads sci-em3d,oltp-db2 -variants baseline,ideal,stms@p=0.125
  -scale 0.0625 -warm 4000 -measure 200000)

worker=()
coord=(-retry-rounds 2 -stall 5s -breaker-after 1 -breaker-cooldown 1m)
if [ "$mode" = chaos ]; then
  worker=(-token ci-secret)
  coord+=(-token ci-secret)
else
  worker=(-checkpoint-every 50000 -tape-dir "$tmp/tier")
  mkdir "$tmp/tier"
fi
for i in 0 1; do
  "$tmp/stms-serve" -worker -listen "127.0.0.1:${ports[i]}" -name "$mode-w$((i + 1))" "${worker[@]}" 2>"$tmp/w$i.err" &
  pids+=($!)
done
urls=()
for p in "${ports[@]}"; do
  for _ in $(seq 1 100); do curl -fsS "http://127.0.0.1:$p/healthz" >/dev/null 2>&1 && break; sleep 0.1; done
  urls+=("http://127.0.0.1:$p")
done

start=$(date +%s.%N)
"$tmp/stms-serve" -coordinate -workers "${urls[0]},${urls[1]}" "${coord[@]}" "${matrix[@]}" \
  -json "$tmp/remote.json" >/dev/null 2>"$tmp/coord.err" &
co=$!

# inflight prints the in_flight count of worker i's health document.
inflight() {
  curl -fsS "${urls[$1]}/healthz" 2>/dev/null | sed -n 's/.*"in_flight":\([0-9]*\).*/\1/p'
}
victim=
for _ in $(seq 1 1200); do
  a=$(inflight 0) b=$(inflight 1)
  a=${a:-0} b=${b:-0}
  ready=1
  if [ "$mode" = resume ]; then
    # Salvageable checkpoints: files in the shared tier, one per cell.
    n=$(find "$tmp/tier" -name '*.stmsckpt' | wc -l)
    [ "$n" -ge $((a + b)) ] || ready=0
  fi
  if [ "$ready" = 1 ] && [ "$a" -ge 1 ]; then victim=0; elif [ "$ready" = 1 ] && [ "$b" -ge 1 ]; then victim=1; fi
  [ -n "$victim" ] && break
  kill -0 "$co" 2>/dev/null || break
  sleep 0.05
done
if [ -z "$victim" ]; then
  echo "worker_kill_smoke: no worker had a cell in flight to kill" >&2
  exit 1
fi
if [ "$mode" = chaos ]; then kill "${pids[victim]}"; else kill -9 "${pids[victim]}"; fi
wait "${pids[victim]}" 2>/dev/null || true
echo "worker_kill_smoke: killed worker $((victim + 1)) ($(printf '%s' "${urls[victim]}"))"
wait "$co"
end=$(date +%s.%N)
cat "$tmp/coord.err"

if [ "$mode" = chaos ]; then
  n=$(sed -n 's/.* \([0-9]*\) retries (.*/\1/p' "$tmp/coord.err")
  what="retries"
else
  n=$(sed -n 's/.*checkpoints: \([0-9]*\) cells resumed mid-run.*/\1/p' "$tmp/coord.err")
  what="cells resumed mid-run"
fi
if [ "${n:-0}" -lt 1 ]; then
  echo "worker_kill_smoke: the coordinator reports no $what: the kill missed every cell" >&2
  exit 1
fi

"$tmp/stms-serve" -coordinate "${matrix[@]}" -json "$tmp/local.json" >/dev/null 2>&1
cmp "$tmp/remote.json" "$tmp/local.json"
awk -v m="$mode" -v s="$start" -v e="$end" -v n="$n" -v w="$what" \
  'BEGIN { printf "worker_kill_smoke: %s ok: %d %s, remote matrix %.2f s, export identical to the in-process run\n", m, n, w, e - s }'
