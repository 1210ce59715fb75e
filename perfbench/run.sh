#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload bdc-secure --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache and temporary files included,
# stays under .bench_build/ in the current directory. Without the repository's
# sources next to perfbench/ the build fails and nothing is printed.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
