#!/usr/bin/env bash
# Builds mcbench from source and runs it with the given flags, e.g.
#
#   bash cmd/mcbench/run.sh --workload yield-analytic --seed 1 --seconds 18 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, temporary directories, the binary) stays under
# .bench_build/ in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/mcbench/go.mod ]]; then
	echo "mcbench: run from the repository root (go.mod and cmd/mcbench/go.mod must exist)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd cmd/mcbench && go build -o "$build/mcbench" .)
exec "$build/mcbench" "$@"
