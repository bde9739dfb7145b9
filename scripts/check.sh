#!/usr/bin/env bash
# check.sh — the repo's single verification gate. Runs formatting, go vet,
# the build, the custom cadmc-vet analyzer suite (internal/analysis) and the
# full test suite under the race detector. Every gate must pass; the first
# failure stops the run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== gob off the live path (in internal/serving only benchwire.go may import encoding/gob)"
gob_importers=$(grep -l '"encoding/gob"' internal/serving/*.go | grep -v -e '_test\.go$' -e '^internal/serving/benchwire\.go$' || true)
if [ -n "$gob_importers" ]; then
    echo "encoding/gob imported outside benchwire.go:" >&2
    echo "$gob_importers" >&2
    exit 1
fi

echo "== perfbench module (vet + test: the benchmark must keep building against the API it drives)"
(cd perfbench && GOPROXY=off GOFLAGS=-mod=mod go vet ./... && GOPROXY=off GOFLAGS=-mod=mod go test ./...)

echo "== cadmc-vet ./...  (twelve analyzers, cross-package facts, baseline gate)"
go run ./cmd/cadmc-vet -json -baseline vet-baseline.json ./... > /dev/null

echo "== cadmc-vet determinism (flow-sensitive diagnostics must be bit-identical at any GOMAXPROCS)"
vet_base=$(mktemp) vet_got=$(mktemp)
GOMAXPROCS=1 go run ./cmd/cadmc-vet -json ./... > "$vet_base" || true
for procs in 4 8; do
    GOMAXPROCS=$procs go run ./cmd/cadmc-vet -json ./... > "$vet_got" || true
    diff -u "$vet_base" "$vet_got"
done
rm -f "$vet_base" "$vet_got"
go test -count=1 -run 'TestRunAllDeterministic' ./internal/analysis

echo "== go test -race ./..."
go test -race ./...

echo "== chaos suite (-count=2: fault schedules must replay identically)"
go test -race -count=2 ./internal/faultnet
go test -race -count=2 -run 'Resilient|Breaker|Live|Client|Split|Server' \
    ./internal/serving ./internal/emulator

echo "== gateway soak (-count=2: hot-swaps must be lossless and race-clean)"
go test -race -count=2 -run 'Gateway|Stack|Golden' ./internal/gateway ./internal/emulator

echo "== chaos-integrity (-count=2: corruption quarantined pre-swap, wedged workers healed)"
go test -race -count=2 -run 'Integrity|Quarantine|Corrupt|Supervisor|Manifest' \
    ./internal/integrity ./internal/gateway ./internal/emulator

echo "== fuzz smoke (5s: serving frame decoder must shrug off hostile bytes)"
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 5s ./internal/serving

echo "== determinism suite (-count=2: parallel kernels and the RL controllers must be bit-exact)"
go test -race -count=2 -run 'Determinism' \
    ./internal/parallel ./internal/tensor ./internal/nn ./internal/report
go test -count=2 -run 'BitExact|Pinned' ./internal/rl ./internal/core

echo "== inference executor (bit-exact against the training forward, allocation bound, GOMAXPROCS 1/2/4)"
for procs in 1 2 4; do
    GOMAXPROCS=$procs go test -count=1 -run 'TestInferenceExecutorBitExact|TestInferenceForwardAllocs' ./internal/nn
done

echo "== telemetry determinism (-count=2: snapshots and traced replays must be bit-identical)"
go test -race -count=2 -run 'Determinism|Snapshot|Trace|Registry' ./internal/telemetry
go test -race -count=2 -run 'TestRunTraceBitIdenticalReplay' ./internal/emulator

echo "== bench smoke (every benchmark must still run)"
go test -run '^$' -bench . -benchtime 1x ./internal/tensor ./internal/nn ./internal/report \
    ./internal/surgery ./internal/latency ./internal/rl

echo "== wire determinism (bit-exact mode must replay identically at any GOMAXPROCS)"
for procs in 1 4 8; do
    GOMAXPROCS=$procs go test -count=1 \
        -run 'TestGatewayEndToEndAcrossHotSwaps|TestRunTraceBitIdenticalReplay|Stack|Golden' \
        ./internal/emulator
done

echo "== wirebench gate (binary codec must hold 3x gob throughput, 10x fewer allocs/frame)"
wire_json=$(mktemp)
go run ./cmd/wirebench -benchtime 100ms -out "$wire_json" -min-speedup 3 -min-alloc-ratio 10
rm -f "$wire_json"

echo "== kernbench gate (batch-8 inference forward must hold 1.3x the training forward, at most 2 allocs/sample)"
kern_json=$(mktemp)
go run ./cmd/kernbench -benchtime 100ms -out "$kern_json"
rm -f "$kern_json"

echo "all checks passed"
