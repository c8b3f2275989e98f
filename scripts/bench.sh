#!/usr/bin/env bash
# bench.sh — the benchmark smoke and the committed sweep records.
#
# Three passes, cheapest-smoke first:
#   1. every benchmark in the repo once (-benchtime=1x) with -benchmem, so
#      a benchmark that panics or b.Fatals fails the gate fast;
#   2. the cmd/dhl-bench harness as an end-to-end smoke;
#   3. the two sweeps committed as reviewed files: the million-flow
#      stateful-NF sweep (flows vs goodput, bytes/flow) into BENCH_pr8.json
#      and the full-window diurnal autotuner run into BENCH_pr10.json.
#      Both are deterministic simulated outputs, so a diff in either file
#      means the model changed.
#
# Usage: scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go test -bench . -benchmem -benchtime=1x (all packages, smoke)"
go test -run '^$' -bench . -benchmem -benchtime=1x -count=1 ./...

echo "==> cmd/dhl-bench smoke (table1)"
go run ./cmd/dhl-bench table1 >/dev/null

echo "==> flow-scale sweep (stateful firewall, 10k..2M flows) -> BENCH_pr8.json"
go run ./cmd/dhl-bench -quick -json flowscale > BENCH_pr8.json

echo "==> diurnal autotuner run (fixed 6 KB vs autotuned, peak and trough) -> BENCH_pr10.json"
go run ./cmd/dhl-bench -json diurnal > BENCH_pr10.json

echo "OK"
