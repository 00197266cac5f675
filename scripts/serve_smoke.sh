#!/usr/bin/env bash
# End-to-end smoke for the resident analysis daemon, driving the real
# binary the way a client would:
#
#   1. batch references: infer a spec DB and render a detection report
#      with the one-shot CLI,
#   2. start `seal serve` over the same tree (no specs, empty cache),
#   3. POST /infer with the same patch corpus (publish) — the daemon's
#      database must match the batch one,
#   4. POST /detect — the daemon's rendered report must be byte-identical
#      to the batch CLI's stdout,
#   5. POST /edit touching one file, rerun the batch CLI over the edited
#      tree, POST /detect again — the incrementally recomputed report must
#      be byte-identical to the full batch rerun,
#   6. scrape /metrics and check the daemon accounted its publishes.
#
# The finer-grained byte-identity (normalized records, redacted manifests
# and metrics, both edit paths) is enforced by
# `go test ./internal/difftest -run TestServeDifferentialBatch`; this
# script is the coarse binary-level gate CI runs alongside it.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
    wait 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT

go run ./cmd/seal gen -out "$work/corpus"

echo "== batch references"
go run ./cmd/seal infer -patches "$work/corpus/patches" -out "$work/specs.json" >/dev/null
go run ./cmd/seal detect -target "$work/corpus/tree" -specs "$work/specs.json" -report \
    >"$work/batch-report-1.txt"

echo "== starting daemon"
go build -o "$work/seal" ./cmd/seal
"$work/seal" serve -addr 127.0.0.1:0 -target "$work/corpus/tree" \
    -cache-dir "$work/cache" >"$work/serve.log" 2>&1 &
daemon_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^serving on http://\([^ ]*\).*#\1#p' "$work/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: daemon never printed its address" >&2
    cat "$work/serve.log" >&2
    exit 1
fi
echo "   daemon at $addr"

post() { # $1 = path, $2 = body file
    curl -sS -X POST "http://$addr$1" -H 'Content-Type: application/json' \
        --data-binary "@$2"
}

echo "== infer (upload the patch corpus, publish the specs)"
python3 - "$work/corpus/patches" >"$work/infer-body.json" <<'EOF'
import json, os, sys
root = sys.argv[1]
patches = []
for pid in sorted(os.listdir(root)):
    pdir = os.path.join(root, pid)
    if not os.path.isdir(pdir):
        continue
    meta = json.load(open(os.path.join(pdir, "patch.json")))
    p = {"ID": meta.get("id", pid), "Description": meta.get("description", ""),
         "Pre": {}, "Post": {}, "Tags": meta.get("tags", {})}
    for side, key in (("pre", "Pre"), ("post", "Post")):
        sroot = os.path.join(pdir, side)
        for dirpath, _, names in os.walk(sroot):
            for n in names:
                full = os.path.join(dirpath, n)
                rel = os.path.relpath(full, sroot).replace(os.sep, "/")
                p[key][rel] = open(full).read()
    patches.append(p)
json.dump({"patches": patches, "publish": True}, sys.stdout)
EOF
post /infer "$work/infer-body.json" >"$work/infer-resp.json"
python3 - "$work/infer-resp.json" "$work/specs.json" <<'EOF'
import json, sys
resp = json.load(open(sys.argv[1]))
batch = json.load(open(sys.argv[2]))
if "error" in resp:
    raise SystemExit("FAIL: /infer: %s" % resp["error"])
if not resp.get("published") or resp.get("epoch") != 2:
    raise SystemExit("FAIL: /infer did not publish epoch 2: %s" %
                     {k: resp.get(k) for k in ("published", "epoch")})
got, want = resp["db"]["specs"], batch["specs"]
if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
    raise SystemExit("FAIL: daemon spec DB diverges from batch infer (%d vs %d specs)"
                     % (len(got), len(want)))
print("   daemon inferred %d specs, identical to batch" % len(got))
EOF

echo "== detect vs batch stdout"
printf '{"report":true}' >"$work/detect-body.json"
post /detect "$work/detect-body.json" >"$work/detect-resp-1.json"
jq -r '.report' "$work/detect-resp-1.json" | head -c -1 >"$work/serve-report-1.txt"
diff "$work/batch-report-1.txt" "$work/serve-report-1.txt"
echo "   byte-identical"

echo "== edit one file, detect again vs full batch rerun"
edited=$(find "$work/corpus/tree" -type f -name '*.c' | sort | head -1)
printf '\n' >>"$edited"
rel=$(python3 -c 'import os,sys; print(os.path.relpath(sys.argv[1], sys.argv[2]))' \
    "$edited" "$work/corpus/tree")
python3 - "$edited" "$rel" >"$work/edit-body.json" <<'EOF'
import json, sys
json.dump({"files": {sys.argv[2]: open(sys.argv[1]).read()}}, sys.stdout)
EOF
post /edit "$work/edit-body.json" >"$work/edit-resp.json"
python3 - "$work/edit-resp.json" <<'EOF'
import json, sys
resp = json.load(open(sys.argv[1]))
if "error" in resp:
    raise SystemExit("FAIL: /edit: %s" % resp["error"])
if resp.get("epoch") != 3 or resp.get("parsed_files") != 1:
    raise SystemExit("FAIL: edit not incremental: %s" %
                     {k: resp.get(k) for k in ("epoch", "parsed_files", "reused_files")})
print("   epoch 3: reparsed %d file, reused %d"
      % (resp.get("parsed_files", 0), resp.get("reused_files", 0)))
EOF
go run ./cmd/seal detect -target "$work/corpus/tree" -specs "$work/specs.json" -report \
    >"$work/batch-report-2.txt"
post /detect "$work/detect-body.json" >"$work/detect-resp-2.json"
jq -r '.report' "$work/detect-resp-2.json" | head -c -1 >"$work/serve-report-2.txt"
diff "$work/batch-report-2.txt" "$work/serve-report-2.txt"
echo "   byte-identical after incremental edit"

echo "== metrics"
curl -sS "http://$addr/metrics" >"$work/metrics.prom"
publishes=$(awk '$1 == "seal_serve_publishes_total" { print $2 }' "$work/metrics.prom")
if [ "${publishes:-0}" -ne 2 ]; then
    echo "FAIL: expected 2 snapshot publishes (infer + edit), metrics say '${publishes:-none}'" >&2
    exit 1
fi

kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null
daemon_pid=""
echo "PASS: daemon output byte-identical to batch through infer/detect/edit/detect"
