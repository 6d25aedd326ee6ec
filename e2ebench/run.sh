#!/usr/bin/env bash
# Builds asdbd, asdb-router and the load generator from this source tree,
# then runs one benchmark invocation. Run from anywhere; arguments go to
# the load generator:
#
#   bash e2ebench/run.sh --workload cartel-durable --seed 1 --seconds 30 --trace 0
#
# Everything it writes (build cache, binaries, daemon data dirs, span
# files) stays under .bench_build/ at the repository root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/asdbd" || ! -d "$root/cmd/asdb-router" ]]; then
	echo "e2ebench: $root does not hold the asdb sources (go.mod, cmd/asdbd, cmd/asdb-router)" >&2
	exit 1
fi

build="$root/.bench_build"
out="$build/e2ebench"
mkdir -p "$out/bin" "$build/tmp" "$build/config"
# Keep the Go toolchain's cache, module and telemetry state inside the
# checkout, and never reach for the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOSUMDB=off \
	GOTOOLCHAIN=local GOWORK=off TMPDIR="$build/tmp"

(cd "$root" && go build -o "$out/bin/asdbd" ./cmd/asdbd && go build -o "$out/bin/asdb-router" ./cmd/asdb-router) >&2
(cd "$here" && go build -o "$out/bin/e2ebench" .) >&2

commit=""
if [[ -e "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
if [[ -z "$commit" ]]; then
	# Not a git checkout: identify the tree by its Go sources instead.
	commit="tree-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out/work" -commit "$commit" "$@"
