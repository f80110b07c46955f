#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. Run it from
# the repository root: bash bench/run.sh --workload small-write --seed 1
#
# Everything the build and the run write stays under bench/.work — the
# go build cache included, so a fresh checkout pays for one cold build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$here/.work"
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$work/bin/adaptbench" .)
exec "$work/bin/adaptbench" "$@"
