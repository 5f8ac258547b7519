#!/usr/bin/env bash
# Builds cmd/hullserver and the load generator from this checkout, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest-clustered --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ (or $CARGO_TARGET_DIR
# when set), including the Go build cache, so a fresh checkout's first
# run compiles the standard library once and later runs reuse it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hullserver" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/hullserver and perfbench/ must be present)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
# Keep the toolchain's own writes (build cache, temp files, GOPATH,
# telemetry under the user config directory) inside the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

go build -o "$build/bin/hullserver" ./cmd/hullserver
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" --server-bin "$build/bin/hullserver" --workdir "$build" "$@"
