#!/bin/sh
# Enforce the statement-coverage floor for the spec store. The store is a
# storage engine — an append-only log of checksummed records, one record
# per commit, torn-tail recovery — where an untested branch silently
# loses specs, so the floor is checked in (scripts/specdb_coverage_floor.txt):
# raising it is a reviewed change and lowering it is a visible one.
set -eu

floor=$(cat "$(dirname "$0")/specdb_coverage_floor.txt")
out=$(go test -cover -count=1 ./internal/specdb)
echo "$out"
pct=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$pct" ]; then
    echo "error: could not parse coverage from go test output" >&2
    exit 1
fi
ok=$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "error: internal/specdb coverage ${pct}% is below the ${floor}% floor" >&2
    exit 1
fi
echo "internal/specdb coverage ${pct}% >= ${floor}% floor"
