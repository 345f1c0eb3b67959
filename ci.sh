#!/usr/bin/env bash
# ci.sh — the repo's tier-1 gate. Every PR must leave this green:
#   gofmt clean, vet clean, everything builds, all tests pass under
#   the race detector.
set -euo pipefail
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
# The scan's assembly kernel is amd64-only; every other architecture
# runs the pure-Go kernel from the same files minus block_amd64.*.
# Cross-compile one (pure Go, works offline) so that file set cannot rot.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/vec
go test -race ./...

# Fan-out width check: PQ training and encoding split their rows over
# every core, and the codebooks and codes must be the same bits however
# many there are. The golden digests and the scalar oracle run at three
# widths, so output that depends on GOMAXPROCS fails here.
go test -count=1 -cpu 1,2,4 -run 'Golden|ScalarArgmin' ./internal/pq
# The same for the quantized scan's pilot bound: serial ≡ vault-parallel
# in results and in every work counter, and a database laid out so the
# pilot misses answering like brute force, in RAM and over a store.
go test -count=1 -cpu 1,2,4 -run 'PQSerialParallelBitEquivalence|PQPilotMissRescans' ./internal/knn
# The same for the distribution layers, where a single query is a batch
# of one: which branch that batch takes below them depends on the core
# count (par.Each's limit, the quantized RunBatch's GOMAXPROCS), so their
# equivalence to one region and the batch's own device stats are held
# at three widths.
go test -count=1 -cpu 1,2,4 -run 'Equivalence|StatsAreTheBatchsOwn' ./internal/cluster
go test -count=1 -cpu 1,2,4 -run 'BitIdentical|Equivalence' ./internal/replica
# The same inside the region, where every engine takes a single query as
# a batch of one: the quantized RunBatch and the indexes' par.Each pick
# their branch for it by core count, so every mode's answers, stats and
# exec tags through Search, Exec and SearchBatch are held at three widths,
# and so are the index modes' answers and work counters (the golden
# digest), which no core count may change.
go test -count=1 -cpu 1,2,4 -run 'TestEngineConformance|TestIndexWorkGolden' .
# The same for the micro-batcher, whose runner count is GOMAXPROCS: how
# many runners exist, execute at once and park between batches depends
# on the width, so its whole suite — group commit, drain on Close, the
# parked runners' exit — runs at three.
go test -count=1 -cpu 1,2,4 ./internal/server/batcher

# Benchmark smoke: compile and run every benchmark once so a bench
# that rots (bad setup, panic, API drift) fails the gate, without
# paying for real measurement iterations.
go test -run=NONE -bench=. -benchtime=1x ./...

# Graph-sweep smoke: the recall/QPS frontier generator behind
# BENCH_06_graph.json must keep running end to end.
go run ./cmd/ssam-bench -exp graph -format json -scale 0.001 -queries 2 > /dev/null

# Tiered-sweep smoke: the out-of-core QPS-vs-cache-fraction generator
# behind BENCH_10_tiered.json must keep running end to end. The small
# fractions force real eviction traffic, and every point self-checks
# bit-exactness against the in-RAM scan, so this also exercises the
# store's evict/reload path under the gate.
go run ./cmd/ssam-bench -exp tiered -format json -scale 0.001 -queries 2 > /dev/null

# wait_port PORT: block until 127.0.0.1:PORT accepts a connection (the
# server smokes start ssam-serve in the background), for at most 10 s;
# if it never does, the load generator's own connection error is what
# fails the gate.
wait_port() {
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
}

# Timing gates: the repo's measured ratios on the 4096 x 64 shape (float32
# vs quantized search, the float block scan vs pq.Codes.Scan, tiered vs
# in-RAM, and two batch-of-16 vs single), each side timed in this one
# process in alternating slices. One core, so a ratio compares kernels
# and not the float scan's vault fan-out; no -race, which would time
# the detector. timing_gates_test.go gives each limit and its reason.
SSAM_TIMING_GATES=1 go test -v -count=1 -cpu 1 -run '^TestTimingGates$' .

# Write-mix smoke: stand a server up, drive a brief mixed read/write
# load through ssam-loadgen (upserts and deletes against a live linear
# region), and tear it down — the whole wire write path in one shot.
smoke_port=18741
go build -o /tmp/ssam-serve-ci ./cmd/ssam-serve
/tmp/ssam-serve-ci -addr 127.0.0.1:$smoke_port &
serve_pid=$!
trap 'kill $serve_pid 2>/dev/null || true' EXIT
wait_port "$smoke_port"
go run ./cmd/ssam-loadgen -addr "http://127.0.0.1:$smoke_port" -region mutsmoke \
    -n 400 -dims 12 -clusters 4 -k 3 -duration 1s -concurrency 4 \
    -upsert-frac 0.2 -delete-frac 0.1
kill $serve_pid
wait $serve_pid 2>/dev/null || true
trap - EXIT

# Replica smoke: serve a 3-replica region with a chaos timer that
# kills replica 1 two seconds in, then drive live load across both a
# zero-downtime reload (1s in) and the kill (2s in). -fail-on-degraded
# makes the driver exit non-zero if a single query came back degraded
# or failed — the acceptance bar for replicated serving.
replica_port=18742
/tmp/ssam-serve-ci -addr 127.0.0.1:$replica_port \
    -preload glove:0.001 -preload-replicas 3 \
    -chaos-kill-replica 1 -chaos-after 2s &
serve_pid=$!
trap 'kill $serve_pid 2>/dev/null || true' EXIT
wait_port "$replica_port"
go run ./cmd/ssam-loadgen -addr "http://127.0.0.1:$replica_port" \
    -region glove -setup=false -dims 100 -k 5 \
    -duration 4s -concurrency 4 -reload-at 1s -fail-on-degraded
# Zipfian multi-tenant smoke on the same server: three small
# replicated tenants, skewed traffic, zero degraded tolerated.
go run ./cmd/ssam-loadgen -addr "http://127.0.0.1:$replica_port" \
    -region tensmoke -tenants 3 -zipf 1.3 -replicas 2 \
    -n 300 -dims 8 -clusters 4 -k 3 \
    -duration 1s -concurrency 4 -fail-on-degraded
kill $serve_pid
wait $serve_pid 2>/dev/null || true
trap - EXIT

# Fuzz-seed smoke: replay every committed seed corpus through its fuzz
# target (no fuzzing engine, just the corpus) so a decoder regression
# against a known-tricky input fails the gate deterministically.
go test -run='^Fuzz' -count=1 ./internal/server/wire ./internal/vec ./internal/knn ./internal/pq

# Coverage floors on the region, the serving stack and the scan
# kernels: these packages were hardened test-first; don't let coverage
# rot. Every mode runs through the root package's one engine seam. The
# scan kernels (knn), the batcher, the attempt race (hedge) and the
# fan-out every serving goroutine runs under (par) — small and all of it
# concurrent — hold a higher bar than the rest. The client reads 90.8 %
# with TestRegionNamesNeedingEscapes driving every call against the real
# server (60.8 % before it); its floor is 5 points under that. The wire
# decoders, the server's one parser of untrusted bytes, read 93.4 % with
# the binary load's refusal table; their floor is 5 points under that.
for spec in .:80 ./internal/server:80 ./internal/server/wire:88 ./internal/server/batcher:90 \
            ./internal/cluster:80 ./internal/hedge:90 ./internal/par:90 ./internal/obs:80 \
            ./internal/knn:90 ./internal/graph:80 ./internal/mutate:80 \
            ./internal/replica:80 ./internal/pq:85 ./internal/tier:80 ./internal/client:85; do
    pkg=${spec%:*}
    floor=${spec#*:}
    pct=$(go test -count=1 -cover "$pkg" | awk '/coverage:/ {gsub(/%/,"",$5); print $5}')
    if [ -z "$pct" ]; then
        echo "ci.sh: no coverage reported for $pkg" >&2
        exit 1
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "ci.sh: coverage for $pkg is ${pct}%, below the ${floor}% floor" >&2
        exit 1
    fi
    echo "coverage $pkg: ${pct}% (floor ${floor}%)"
done

echo "ci.sh: all green"
