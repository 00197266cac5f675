#!/usr/bin/env bash
# check_claims.sh — every test, benchmark and fuzz target that DESIGN.md,
# EXPERIMENTS.md or README.md names in backticks must exist, so a figure or
# a guarantee the docs credit to a named check can be reproduced by running
# it. A name given to `-run` is a pattern: some target's name must start
# with it. Exits 1 and lists the missing names otherwise.
#
#   ./scripts/check_claims.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# cmd/sealbench is a module of its own, which ./... does not reach.
listed=$({
	go test -list . ./...
	(cd cmd/sealbench && go test -list . ./...)
} | grep -E '^(Test|Benchmark|Fuzz)' | sort -u)

missing=0
while IFS= read -r span; do
	for name in $(grep -oE '\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*' <<<"$span" || true); do
		want="^$name\$"
		if [[ $span == *"-run "* ]]; then
			want="^$name"
		fi
		if ! grep -qE "$want" <<<"$listed"; then
			echo "check_claims: $name is named in the docs but no such test, benchmark or fuzz target exists" >&2
			missing=1
		fi
	done
done < <(grep -ohE '`[^`]+`' DESIGN.md EXPERIMENTS.md README.md)

if [[ $missing -ne 0 ]]; then
	exit 1
fi
echo "check_claims: every named test, benchmark and fuzz target exists"
