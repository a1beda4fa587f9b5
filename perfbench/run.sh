#!/usr/bin/env bash
# Builds semiserve and the perfbench load harness from the checkout in the
# current directory, then runs one measurement. From the root of a
# checkout:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache and temporary files all live under
# .bench_build/, so a run reads and writes nothing outside the checkout.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/semiserve" ]; then
	echo "perfbench: run from the root of a semimatch checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$out/semiserve" ./cmd/semiserve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -semiserve "$out/semiserve" -workdir "$out" "$@"
