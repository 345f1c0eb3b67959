#!/usr/bin/env bash
# Builds the spine benchmark from the checkout it sits in and runs it
# with the arguments given. Everything the build writes (Go's build
# cache included) stays under .bench_build/ in that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
    echo "run.sh: $root holds no go.mod: the benchmark builds against the ssam module" >&2
    exit 2
fi
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/spine ./benchmarks/spine >&2
# The envelope's commit, when the checkout is a git repository itself.
if [ -z "${SPINE_COMMIT:-}" ] && [ -e .git ] && commit="$(git rev-parse --short=12 HEAD 2>/dev/null)"; then
    [ -z "$(git status --porcelain 2>/dev/null)" ] || commit="$commit-dirty"
    export SPINE_COMMIT="$commit"
fi
exec .bench_build/spine "$@"
