#!/usr/bin/env bash
# End-to-end smoke for the spec store, driving the real CLI the way
# a user would:
#
#   1. infer a flat spec database and import it into a store,
#   2. detect from the store and byte-diff against the flat-file run —
#      in process at -workers 1 and 2, and sharded across two spawned
#      workers,
#   3. verify the store, compact it, verify again, and byte-diff the
#      post-compaction detection against the same flat reference,
#   4. re-import the flat file: first-wins dedup must add nothing,
#   5. SIGKILL an importer mid-ingest on a bulk corpus, reopen the store
#      (a read-only open ignores a torn tail; the read-write open of the
#      re-import cuts it off and replays every complete record), verify
#      it, and check that the re-import converges on a never-crashed
#      reference import of the same corpus. An import is one write and
#      one fsync, so the kill lands before, inside or after that write;
#      every torn-write case is covered deterministically by the Go crash
#      harness (internal/specdb/crash_test.go).
#
# The finer-grained contracts (one-spec edit recomputing exactly one
# region group, snapshot pinning, version skew, every crash prefix) are
# enforced by `go test ./internal/difftest ./internal/specdb ./cmd/seal`;
# this script is the coarse binary-level gate CI runs alongside them.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
store="$work/specs.specdb"

# One compiled binary for every step: faster than repeated `go run`, and
# the kill step needs the importer's real PID, not a go-run wrapper's.
seal="$work/seal"
go build -o "$seal" ./cmd/seal

"$seal" gen -out "$work/corpus"
"$seal" infer -patches "$work/corpus/patches" -out "$work/specs.json" >/dev/null

echo "== import flat specs into the store"
"$seal" specdb -db "$store" -import "$work/specs.json"

echo "== detect: flat reference"
"$seal" detect -target "$work/corpus/tree" -specs "$work/specs.json" \
    -report >"$work/flat-report.txt"

echo "== detect: store-backed"
"$seal" detect -target "$work/corpus/tree" -spec-db "$store" \
    -report >"$work/store-report.txt"
diff "$work/flat-report.txt" "$work/store-report.txt"

echo "== detect: store-backed, region groups on 2 workers"
"$seal" detect -target "$work/corpus/tree" -spec-db "$store" \
    -report -workers 2 >"$work/store-workers2-report.txt"
diff "$work/flat-report.txt" "$work/store-workers2-report.txt"

echo "== detect: store-backed across 2 spawned workers"
"$seal" detect -target "$work/corpus/tree" -spec-db "$store" \
    -report -shards 2 -cache-dir "$work/cache" >"$work/sharded-report.txt"
diff "$work/flat-report.txt" "$work/sharded-report.txt"

echo "== verify, compact, verify"
"$seal" specdb -db "$store" -verify
"$seal" specdb -db "$store" -compact
"$seal" specdb -db "$store" -verify
"$seal" specdb -db "$store" -stats

echo "== detect: after compaction"
"$seal" detect -target "$work/corpus/tree" -spec-db "$store" \
    -report >"$work/compacted-report.txt"
diff "$work/flat-report.txt" "$work/compacted-report.txt"

echo "== re-import must dedup"
reimport=$("$seal" specdb -db "$store" -import "$work/specs.json")
echo "$reimport"
case "$reimport" in
    "imported 0 specs into"*) ;;
    *)
        echo "FAIL: re-import was not a no-op" >&2
        exit 1
        ;;
esac

echo "== kill -9 mid-ingest, reopen, converge"
# Blow the inferred corpus up to ~8k unique-key clones so the importer is
# likely still staging or writing its one commit when the signal lands.
python3 - "$work/specs.json" "$work/bulk-specs.json" <<'PY'
import json, sys
db = json.load(open(sys.argv[1]))
out, i = [], 0
while len(out) < 8000:
    for sp in db["specs"]:
        c = dict(sp)
        c["iface"] = "bulk%05d.%s.ops" % (i, c.get("iface", c.get("api", "x")).replace(" ", "_"))
        c["id"] = "%s-bulk%05d" % (c.get("id", "s"), i)
        out.append(c)
    i += 1
json.dump({"specs": out}, open(sys.argv[2], "w"))
PY
bulk="$work/bulk.specdb"
"$seal" specdb -db "$bulk" -import "$work/bulk-specs.json" &
victim=$!
sleep 0.4
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true

if [ -f "$bulk" ]; then
    echo "== killed store must reopen: complete records replay, a torn tail is ignored"
    "$seal" specdb -db "$bulk" -stats
else
    echo "note: importer killed before the store file appeared; re-import starts fresh"
fi

echo "== re-import reopens read-write, converges on the full corpus, and verifies"
"$seal" specdb -db "$bulk" -import "$work/bulk-specs.json"
"$seal" specdb -db "$bulk" -verify

ref="$work/bulk-ref.specdb"
"$seal" specdb -db "$ref" -import "$work/bulk-specs.json"
"$seal" specdb -db "$bulk" -query "" >"$work/bulk-dump.txt"
"$seal" specdb -db "$ref" -query "" >"$work/ref-dump.txt"
diff "$work/bulk-dump.txt" "$work/ref-dump.txt"

echo "PASS: store-backed detection byte-identical to flat (in-process at 1 and 2 workers, sharded, post-compaction); kill-mid-ingest recovered and converged"
