#!/usr/bin/env bash
# Builds perfbench from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload wire-point --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# repository root: the Go build cache, the binary, the data directories
# (removed when the run ends) and the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/xdg"

go=$(command -v go || true)
if [ -z "$go" ] && [ -x /usr/local/go/bin/go ]; then
	go=/usr/local/go/bin/go
fi
if [ -z "$go" ]; then
	echo "perfbench: no go toolchain on PATH" >&2
	exit 2
fi

# Keep the toolchain's caches and temporary files under the repository and
# never reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/xdg" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && "$go" build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
