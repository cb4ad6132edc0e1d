#!/usr/bin/env bash
# Builds hgpart, hgpartd and the benchmark from this checkout into
# .bench_build/, then runs the benchmark with the arguments given, e.g.
#
#   bash hgbench/run.sh --workload vcycle-powerlaw --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache included) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/hgpart || ! -d cmd/hgpartd ]]; then
	echo "hgbench: $root is not a fasthgp checkout (no go.mod, cmd/hgpart or cmd/hgpartd)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$build/bin/hgpart" ./cmd/hgpart
go build -o "$build/bin/hgpartd" ./cmd/hgpartd
(cd hgbench && go build -o "$build/bin/hgbench" .)

if [[ -d "$root/.git" ]]; then
	HGBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
	export HGBENCH_COMMIT
fi
exec "$build/bin/hgbench" --root "$root" "$@"
