#!/usr/bin/env bash
# Builds the daemons under test (cmd/snapserved, cmd/snapshardd) and the
# perfbench driver from source, then runs the driver with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload classroom-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/snapserved || ! -d cmd/snapshardd ]]; then
	echo "perfbench: run from the repository root (no go.mod or daemon sources here)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/bin"
# The go command's caches and its telemetry counters (kept under the user
# config directory) are pointed into the build directory as well.
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/snapserved ./cmd/snapshardd
(cd perfbench && go build -o "../$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" --out "$out" "$@"
