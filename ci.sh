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

# Benchmark smoke: compile and run every benchmark once so a bench
# that rots (bad setup, panic, API drift) fails the gate, without
# paying for real measurement iterations.
go test -run=NONE -bench=. -benchtime=1x ./...

# Vault-sweep smoke: the perf-trajectory generator behind
# BENCH_05_vaults.json must keep running end to end (tiny scale: this
# checks the harness, not the numbers).
go run ./cmd/ssam-bench -exp vaults -format json -scale 0.001 -queries 2 > /dev/null

# Graph-sweep smoke: the recall/QPS frontier generator behind
# BENCH_06_graph.json must keep running end to end.
go run ./cmd/ssam-bench -exp graph -format json -scale 0.001 -queries 2 > /dev/null

# Mutation-sweep smoke: the read-QPS-under-write-load generator behind
# BENCH_07_mutate.json must keep running end to end.
go run ./cmd/ssam-bench -exp mutate -format json -scale 0.001 -queries 2 > /dev/null

# Replica-sweep smoke: the availability-under-kill generator behind
# BENCH_08_replicas.json must keep running end to end.
go run ./cmd/ssam-bench -exp replicas -format json -scale 0.001 -queries 2 > /dev/null

# Quantized-sweep smoke: the recall/QPS generator behind
# BENCH_09_pq.json must keep running end to end (reranks above the
# tiny row count are skipped by the sweep itself).
go run ./cmd/ssam-bench -exp pq -format json -scale 0.001 -queries 2 > /dev/null

# Tiered-sweep smoke: the out-of-core QPS-vs-cache-fraction generator
# behind BENCH_10_tiered.json must keep running end to end. The small
# fractions force real eviction traffic, and every point self-checks
# bit-exactness against the in-RAM scan, so this also exercises the
# store's evict/reload path under the gate.
go run ./cmd/ssam-bench -exp tiered -format json -scale 0.001 -queries 2 > /dev/null

# ratio_gate LABEL NUM_BENCH DEN_BENCH OP LIMIT: run the two root-package
# benchmarks on the identical shape (4096 x 64, k=10), and fail if
# ns/op(NUM) / ns/op(DEN) is not OP (">=" or "<=") LIMIT. The limits
# compare kernels, so the runs are pinned to one CPU (-cpu=1, where the
# limits were calibrated): with two cores the float32 scan's vault
# fan-out halves its time and the ratio measures parallelism instead.
# Each side is read off the quietest of three runs: interference on a
# shared box only ever slows a run, and at 20 iterations one burst moves
# a single run by more than the headroom.
ratio_gate() {
    local label=$1 num=$2 den=$3 op=$4 limit=$5 out ratio
    out=$(go test -run=NONE -bench="${num}\$|${den}\$" -benchtime=20x -count=3 -cpu=1 .)
    ratio=$(echo "$out" | awk -v num="$num" -v den="$den" '
        $1 ~ "^" num "(-[0-9]+)?$" && (n == "" || $3 < n) { n = $3 }
        $1 ~ "^" den "(-[0-9]+)?$" && (d == "" || $3 < d) { d = $3 }
        END {
            if (n == "" || d == "") { print "missing"; exit }
            printf "%.2f", n / d
        }')
    if [ "$ratio" = "missing" ]; then
        echo "ci.sh: $label check could not parse benchmark output:" >&2
        echo "$out" >&2
        exit 1
    fi
    if ! awk -v r="$ratio" -v l="$limit" "BEGIN { exit !(r $op l) }"; then
        echo "ci.sh: $label is ${ratio}x, want $op ${limit}x" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "$label: ${ratio}x (want $op ${limit}x)"
}

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

# ADC regression check: the quantized scan must stay meaningfully
# faster than the float32 scan. Read at -cpu=1 on the growth box with
# the AVX2 block kernel, quietest of three a side: 2.32x, 2.36x, 2.40x
# (float scan 122-129 us, quantized 51.5-54.5 us at this shape), up
# from 1.65-1.8x since the ADC pass folds four code columns a pass and
# selects its candidates by threshold and quickselect, not through a
# heap. What is left of the quantized side at 4096 x 64 is mostly the
# lookup-table build (256 x 64 dims a query), which the ratio therefore
# tracks too. The floor is 1.8x: the lowest reading leaves 29 % over it
# (the bar for raising it was 25 %). On a CPU without AVX2 the float
# scan is 2.4x slower and the headroom is a factor of two again. If the
# float kernel gains again, this gate is the one that trips without
# anything having rotted: re-read it then.
ratio_gate "float32 scan time vs quantized scan" \
    BenchmarkRegionSearchHost BenchmarkSearchPQ ">=" 1.8

# Tiered regression check: a fully-cached storage-backed region must
# stay within 1.2x of the in-RAM host scan. Past the first pass every
# page is resident, so the only extra work is page pins and the vault
# merge — if this trips, the tier store's hot path has rotted, or the
# two scans no longer share one kernel: a page loop left on the row
# kernel while the slab loop runs the block kernel reads 1.45x. Measured
# 0.94-1.0x.
ratio_gate "fully-cached tiered scan time vs in-RAM scan" \
    BenchmarkRegionSearchTiered BenchmarkRegionSearchHost "<=" 1.2

# Query-tile regression check: a batch of 16 must cost well under 16
# single scans. The block kernel widens four rows once per batch and
# advances four (query, row) accumulators an instruction; measured
# 5.2-5.5x on the growth box (9.4-9.8x on the pure-Go kernel, which
# widens once per four queries), and a batch that runs one scan per
# query reads 16x, so 8x trips long before that on the assembly kernel.
# A CPU without AVX2 runs the pure-Go kernel, whose ratio is over 8:
# the limit there is the 12x that kernel was given.
batch_limit=8
grep -qw avx2 /proc/cpuinfo 2>/dev/null || batch_limit=12
ratio_gate "batch-of-16 scan time vs single scan" \
    BenchmarkRegionSearchBatch16Host BenchmarkRegionSearchHost "<=" "$batch_limit"

# One-scan regression check: the storage-backed scan is the in-RAM
# scan's loop over another row source, so a fully-cached batch of 16
# must cost the same multiple of a single scan there as it does in RAM.
# Measured 5.55x on the growth box (692 us over 124.5 us, quietest of
# three a side at -cpu=1, AVX2), beside 5.2x in RAM in the same run; it
# read 16.1x while the storage-backed engines were a second family that
# ran one whole scan, and pinned every page once, per query of a batch.
# If this trips and the gate above does not, the two scans have forked
# again: look for a second partition walk in internal/knn.
ratio_gate "tiered batch-of-16 scan time vs tiered single scan" \
    BenchmarkRegionSearchBatch16Tiered BenchmarkRegionSearchTiered "<=" "$batch_limit"

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
go test -run='^Fuzz' -count=1 ./internal/server/wire ./internal/vec ./internal/knn

# Coverage floors on the region, the serving stack and the scan
# kernels: these packages were hardened test-first; don't let coverage
# rot. Every mode runs through the root package's one engine seam. The
# scan kernels (knn), the batcher and the attempt race (hedge) — both
# small and all of it concurrent — hold a higher bar than the rest.
for spec in .:80 ./internal/server:80 ./internal/server/batcher:90 \
            ./internal/cluster:80 ./internal/hedge:90 ./internal/obs:80 \
            ./internal/knn:90 ./internal/graph:80 ./internal/mutate:80 \
            ./internal/replica:80 ./internal/pq:85 ./internal/tier:80; do
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
