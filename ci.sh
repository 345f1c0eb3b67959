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

# ratio_gate LABEL NUM_BENCH DEN_BENCH OP LIMIT [PAIRS]: run the two root-package
# benchmarks on the identical shape (4096 x 64, k=10), and fail if
# ns/op(NUM) / ns/op(DEN) is not OP (">=" or "<=") LIMIT. The limits
# compare kernels, so the runs are pinned to one CPU (-cpu=1, where the
# limits were calibrated): with two cores the float32 scan's vault
# fan-out halves its time and the ratio measures parallelism instead.
# The gate reads PAIRS (default ratio_pairs) interleaved pairs, NUM then
# DEN, one run of each, and gates the median of the per-pair ratios. Interference on a
# shared box comes in bursts: reading all of one side before the other
# lets a burst move a whole side, where a pair's two runs sit seconds
# apart and share the burst, and the median drops the pair it missed.
# Each run times ratio_iters iterations, so that one run of the fastest
# side (the quantized search, 45-60 us a query at -cpu=1) lasts at least
# about 20 ms: at 20 iterations a run timed 1-2 ms, and one pair's ratio
# ranged 1.4-4.1x on an idle box. The root test binary is built once
# for every gate.
ratio_bin=/tmp/ssam-ratio-ci.test
ratio_pairs=7
ratio_iters=500x
go test -c -o "$ratio_bin" .

# bench_ns BENCH: one run of BENCH at the gates' settings; prints ns/op.
bench_ns() {
    local out ns
    out=$("$ratio_bin" -test.run=NONE -test.bench="^$1\$" -test.benchtime=$ratio_iters -test.cpu=1)
    ns=$(echo "$out" | awk -v b="$1" '$1 ~ "^" b "(-[0-9]+)?$" { print $3 }')
    if [ -z "$ns" ]; then
        echo "ci.sh: could not parse $1 benchmark output:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "$ns"
}

ratio_gate() {
    local label=$1 num=$2 den=$3 op=$4 limit=$5 pairs=${6:-$ratio_pairs} ratios="" n d ratio
    for _ in $(seq 1 "$pairs"); do
        n=$(bench_ns "$num")
        d=$(bench_ns "$den")
        ratios="$ratios $(awk -v n="$n" -v d="$d" 'BEGIN { printf "%.2f", n / d }')"
    done
    ratio=$(echo "$ratios" | tr ' ' '\n' | sed '/^$/d' | sort -g |
        awk '{ r[NR] = $1 } END { printf "%.2f", r[int((NR + 1) / 2)] }')
    if ! awk -v r="$ratio" -v l="$limit" "BEGIN { exit !(r $op l) }"; then
        echo "ci.sh: $label is ${ratio}x (median of pairs:$ratios), want $op ${limit}x" >&2
        echo "ci.sh: load average $(cat /proc/loadavg 2>/dev/null)" >&2
        exit 1
    fi
    echo "$label: ${ratio}x (want $op ${limit}x; pairs:$ratios)"
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
# faster than the float32 scan. History at 20 iterations a run: 2.32-
# 2.40x once the ADC pass selected by threshold and quickselect (1.65-
# 1.8x before), then 2.04-3.21x with the pilot bound, against a floor of
# 1.8x, which sat far enough under the reading that a spin loop slowing
# pq.Scan's block by 25-30 % passed the gate in 17 of 22 runs. Re-read
# at 500 iterations on a 2-vCPU Xeon with the AVX2 block kernel: the
# unloaded median is 2.84-2.88x (float scan ~140 us, quantized ~50 us).
# The 25 % rule (a floor rises to 25 % under the unloaded reading once
# it sits further below, and is never lowered) allows 2.27x; the floor
# is 2.1x because on a shared box at load average 1-1.5 the gate's
# median fell to 2.24-2.40x in 7 of 26 clean runs (the parent's to
# 2.38x), and a floor on top of those readings would fail healthy code.
# With the 25-30 % spin loop back in pq.Scan, twelve runs on that box
# read medians of 1.41-3.03x: 2 fail at 2.1x (5 would at 2.2x), where
# the old reading against the old floor failed none. A one-core burner
# read 2.58x and 2.67x. On a CPU without AVX2 the float scan is 2.4x
# slower and the headroom is larger.
# It reads 11 pairs, as the tiered gate does: at 7 a full run on
# healthy code once read 2.18x. At 11 pairs on the same shared 2-vCPU
# box (load average 1-1.3), twelve runs read medians of 1.89-2.45x
# (one under the floor; single pairs 1.27-4.53x); with a spin loop
# slowing pq.Scan's block by ~22 %, 2.11-2.31x (none fail); by ~31 %,
# 2.00-2.34x (6 of 12 fail). On that box the floor sits close under
# healthy readings and catches only the larger slowdown half the time.
# If the float kernel gains again, this gate is the one that trips
# without anything having rotted: re-read it then.
ratio_gate "float32 scan time vs quantized scan" \
    BenchmarkRegionSearchHost BenchmarkSearchPQ ">=" 2.1 11

# Tiered regression check: a fully-cached storage-backed region must
# stay within 1.2x of the in-RAM host scan. Past the first pass every
# page is resident, so the only extra work is page pins and the vault
# merge — if this trips, the tier store's hot path has rotted, or the
# two scans no longer share one kernel: a page loop left on the row
# kernel while the slab loop runs the block kernel read 1.45x when this
# gate was set (2.3-2.6x on today's AVX2 block kernel). Measured
# 0.94-1.0x; re-read at 500 iterations, unloaded median 1.01-1.02x (and
# 1.01-1.02x on a noisy box). The 25 % rule would put the ceiling at
# 1.27x, looser than it is, so it stays at 1.2x. Its healthy median sits
# only 0.2x under the ceiling, and one pair reads anywhere in 0.6-1.5x
# under load, so it reads 11 pairs, not 7: at 7, a full run at load
# average ~1.5 once read 1.14x (pairs 0.78-1.70x). Under a one-core
# burner, ten runs at 11 pairs read medians of 0.94-1.02x; a fifth of
# each page's rows scored a second time on the row kernel (a ~1.45x
# loss) read 1.34-1.45x, failing ten of ten.
ratio_gate "fully-cached tiered scan time vs in-RAM scan" \
    BenchmarkRegionSearchTiered BenchmarkRegionSearchHost "<=" 1.2 11

# Query-tile regression check: a batch of 16 must cost well under 16
# single scans. The block kernel widens four rows once per batch and
# advances four (query, row) accumulators an instruction; measured
# 5.2-5.5x on the growth box (9.4-9.8x on the pure-Go kernel, which
# widens once per four queries), and a batch that runs one scan per
# query reads 16x. Re-read at 500 iterations on the AVX2 kernel: the
# unloaded median is 5.35-5.38x (5.43-6.29x on a noisy box, 5.50x and
# 5.54x under a one-core burner). The 25 % rule allows a ceiling of
# 6.7x; it comes down from 8x to 7x, 11 % over the noisy readings of
# this gate and the next. A CPU without AVX2 runs the pure-Go kernel,
# whose ratio is over 8: the limit there stays the 12x that kernel was
# given (no such CPU was at hand to re-read it).
batch_limit=7
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
# Re-read at 500 iterations: unloaded median 5.11-5.30x (4.26-6.29x on
# a noisy box, 5.36x and 5.37x under a one-core burner); it shares the
# gate above's ceiling.
# If this trips and the gate above does not, the two scans have forked
# again: look for a second partition walk beside knn.WalkVaults.
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
