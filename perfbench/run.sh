#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Every build product, the spans of
# a traced run and the service workload's state stay under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build) inside the
# checkout; the Go toolchain gets no network access and no files outside
# it. Exits non-zero without a result when the sources are missing.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath \
	TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --spans "$build/spans" --workdir "$build/tmp" "$@"
