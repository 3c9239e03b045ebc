#!/usr/bin/env bash
# Builds and runs ccbench, the repository's benchmark, from the root of
# a checkout:
#
#   bash bench/run.sh --workload check-miss --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache goes under the build directory
# ($CARGO_TARGET_DIR, else .bench_build) inside the checkout, so a run
# reads and writes nothing outside it. The arguments are ccbench's; see
# bench/README.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomod
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bin/ccbench" ./ccbench)
cd "$root"
exec "$build/bin/ccbench" "$@"
