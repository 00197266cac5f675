#!/usr/bin/env bash
# Builds sealbench from source and runs it with the given arguments, e.g.
#
#   bash cmd/sealbench/run.sh -seed 1 -out result.json
#   bash cmd/sealbench/run.sh --workload cold-batch --seed 1 --seconds 15 --trace 0
#   bash cmd/sealbench/run.sh compare a.json b.json
#
# Everything the build and the run write (Go build cache, temp files,
# binaries, corpora) lands under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$root/cmd/sealbench" -o "$out/sealbench" .
cd "$root"
exec "$out/sealbench" "$@"
