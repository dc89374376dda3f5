#!/usr/bin/env bash
# Builds the benchmark and the fuseserve binary from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash fusebench/run.sh --workload sim-full --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, GOPATH, and the go command's
# telemetry (kept under the user config directory, here XDG_CONFIG_HOME).
# Build time is not part of any metric.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/fuseserve ]]; then
	echo "fusebench: run from the root of the fuse repository (no go.mod or cmd/fuseserve here)" >&2
	exit 1
fi

out=.bench_build
mkdir -p "$out/tmp" "$out/runs" "$out/config/go/telemetry"
export GOCACHE="$PWD/$out/go-cache" GOTMPDIR="$PWD/$out/tmp" GOPATH="$PWD/$out/gopath" \
	XDG_CONFIG_HOME="$PWD/$out/config" GOTOOLCHAIN=local GOPROXY=off
# In its default mode the go command starts a detached telemetry upload
# process that outlives it; with telemetry off it starts none.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/fuseserve" ./cmd/fuseserve >&2
(cd fusebench && go build -o "../$out/fusebench" .) >&2
exec "$out/fusebench" "$@"
