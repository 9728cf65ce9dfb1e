#!/usr/bin/env bash
# Builds the benchmark against this checkout's sources, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign|corpus|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and on-disk corpora.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a SherLock checkout (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
