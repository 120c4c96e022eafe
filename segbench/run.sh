#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash segbench/run.sh --workload serve_cold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory. The toolchain is used as installed and modules are never
# downloaded: the benchmark depends only on the repository itself.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/segbench/go.mod" ]]; then
	echo "segbench: run from the repository root (go.mod and segbench/go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off XDG_CONFIG_HOME="$out/config"
go -C "$root/segbench" build -buildvcs=false -o "$out/segbench" .

if [[ -z "${SEGBENCH_COMMIT:-}" ]]; then
	SEGBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export SEGBENCH_COMMIT
fi
exec "$out/segbench" "$@"
