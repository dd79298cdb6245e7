#!/usr/bin/env bash
# Builds the job-level benchmark from this checkout and runs it:
#
#   bash jobbench/run.sh --workload cg-cr --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, checkpoint directories, the binary) stays under .bench_build/
# at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local
(cd "$root/jobbench" && go build -o "$out/jobbench" .)
exec "$out/jobbench" "$@"
