#!/usr/bin/env bash
# Builds sppbench, sppd, sppgw and the perfbench program from the
# checkout this is run in, then runs it with the given flags:
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sppbench" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root: no go.mod, cmd/sppbench or internal/ in $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/config"
export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off

go build -C "$root" -o "$build/bin/" ./cmd/sppbench ./cmd/sppd ./cmd/sppgw
go build -C "$root/perfbench" -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" "$@"
