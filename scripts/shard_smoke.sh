#!/usr/bin/env bash
# End-to-end smoke for the scale-out tier, driving the real binary the way
# an operator would:
#
#   1. single-process reference: infer a spec DB and render a detection
#      report with the one-shot CLI,
#   2. `seal detect -shards 2` (coordinator spawns its own worker
#      processes) — stdout must be byte-identical to the reference, and
#      again with the specs loaded from a spec store (-spec-db), which the
#      coordinator ships to the workers inline,
#   3. start two `seal work` daemons and run detect against them via
#      -shard-addrs — byte-identical again,
#   4. kill one worker, rerun: the coordinator must exit 3 (quarantine),
#      the manifest must record exactly that shard as lost and the other
#      as ok, and every bug line in the degraded report must also appear
#      in the reference (the surviving shard's output is untouched —
#      nothing is invented to paper over the loss),
#   5. restart the dead worker on the same port and rerun — byte-identical
#      to the reference again, exit 0 (recovery warms from the shared
#      cache plane, no coordinator state to repair),
#   6. kill a worker again and rerun with -reshard-on-loss (plus probes,
#      retry and backoff armed): the coordinator re-partitions the lost
#      shard's region groups across the survivor, exits 0, the report is
#      byte-identical to the reference, and the manifest records the
#      victim as "recovered" with its dispatch attempts and recovery
#      provenance.
#
# The finer-grained mid-flight variant (worker socket closed while
# requests are in flight, surviving records diffed individually) is
# enforced by `go test ./internal/difftest -run TestShardFaultIsolation`;
# this script is the coarse binary-level gate CI runs alongside it.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
cleanup() {
    for f in "$work"/*.pid; do
        [ -e "$f" ] && kill "$(cat "$f")" 2>/dev/null || true
    done
    wait 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT

go run ./cmd/seal gen -out "$work/corpus"

echo "== single-process reference"
go run ./cmd/seal infer -patches "$work/corpus/patches" -out "$work/specs.json" >/dev/null
go run ./cmd/seal detect -target "$work/corpus/tree" -specs "$work/specs.json" -report \
    >"$work/ref-report.txt"

go build -o "$work/seal" ./cmd/seal

echo "== -shards 2 (spawned workers) vs reference"
"$work/seal" detect -target "$work/corpus/tree" -specs "$work/specs.json" -report \
    -shards 2 -cache-dir "$work/cache-spawn" >"$work/spawn-report.txt"
diff "$work/ref-report.txt" "$work/spawn-report.txt"
echo "   byte-identical"

echo "== -spec-db -shards 2 (store-loaded specs) vs reference"
"$work/seal" specdb -db "$work/specs.specdb" -import "$work/specs.json" >/dev/null
"$work/seal" detect -target "$work/corpus/tree" -spec-db "$work/specs.specdb" -report \
    -shards 2 >"$work/store-spawn-report.txt"
diff "$work/ref-report.txt" "$work/store-spawn-report.txt"
echo "   byte-identical"

start_worker() { # $1 = addr, $2 = log file; records pid in $2.pid, prints addr
    "$work/seal" work -addr "$1" -target "$work/corpus/tree" \
        -cache-dir "$work/cache-remote" >"$2" 2>&1 &
    echo $! >"$2.pid"
    local got=""
    for _ in $(seq 1 100); do
        got=$(sed -n 's#^worker on http://\([^ ]*\).*#\1#p' "$2")
        [ -n "$got" ] && break
        sleep 0.1
    done
    if [ -z "$got" ]; then
        echo "FAIL: worker never printed its address" >&2
        cat "$2" >&2
        exit 1
    fi
    echo "$got"
}

echo "== -shard-addrs (pre-started workers) vs reference"
addr0=$(start_worker 127.0.0.1:0 "$work/worker0.log")
addr1=$(start_worker 127.0.0.1:0 "$work/worker1.log")
echo "   workers at $addr0, $addr1"
"$work/seal" detect -target "$work/corpus/tree" -specs "$work/specs.json" -report \
    -shard-addrs "$addr0,$addr1" >"$work/remote-report.txt"
diff "$work/ref-report.txt" "$work/remote-report.txt"
echo "   byte-identical"

echo "== kill worker 0, rerun: exactly its shard quarantined"
pid0=$(cat "$work/worker0.log.pid")
kill "$pid0"
wait "$pid0" 2>/dev/null || true
rm -f "$work/worker0.log.pid"
rc=0
"$work/seal" detect -target "$work/corpus/tree" -specs "$work/specs.json" -report \
    -shard-addrs "$addr0,$addr1" -manifest-out "$work/degraded-manifest.json" \
    >"$work/degraded-report.txt" 2>"$work/degraded-stderr.txt" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: degraded run exited $rc, want 3 (quarantine)" >&2
    cat "$work/degraded-stderr.txt" >&2
    exit 1
fi
python3 - "$work/degraded-manifest.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
shards = m.get("shards") or []
outcomes = sorted(s["outcome"] for s in shards)
if outcomes != ["lost", "ok"]:
    raise SystemExit("FAIL: shard outcomes %s, want one lost + one ok" % outcomes)
lost = next(s for s in shards if s["outcome"] == "lost")
if not lost.get("reason"):
    raise SystemExit("FAIL: lost shard carries no reason")
print("   shard %d lost (%s), shard survived" % (lost["shard"], lost["reason"].splitlines()[0][:60]))
EOF
# Every bug the degraded run reports must exist verbatim in the
# reference: losing a shard removes output, never alters or invents it.
grep '^=== ' "$work/degraded-report.txt" >"$work/degraded-bugs.txt" || true
grep '^=== ' "$work/ref-report.txt" >"$work/ref-bugs.txt" || true
if [ -s "$work/degraded-bugs.txt" ]; then
    invented=$(comm -13 <(sort "$work/ref-bugs.txt") <(sort "$work/degraded-bugs.txt"))
    if [ -n "$invented" ]; then
        echo "FAIL: degraded run reports bugs absent from the reference:" >&2
        echo "$invented" >&2
        exit 1
    fi
fi
if ! grep -q '^quarantined .*shard-lost' "$work/degraded-report.txt"; then
    echo "FAIL: degraded report does not note the shard-lost quarantine" >&2
    cat "$work/degraded-report.txt" >&2
    exit 1
fi
echo "   surviving output is a subset of the reference, loss reported"

echo "== restart the dead worker, rerun: full recovery"
addr0b=$(start_worker "$addr0" "$work/worker0b.log")
if [ "$addr0b" != "$addr0" ]; then
    echo "FAIL: restarted worker bound $addr0b, want $addr0" >&2
    exit 1
fi
"$work/seal" detect -target "$work/corpus/tree" -specs "$work/specs.json" -report \
    -shard-addrs "$addr0,$addr1" >"$work/recovered-report.txt"
diff "$work/ref-report.txt" "$work/recovered-report.txt"
echo "   byte-identical after worker restart"

echo "== kill worker 1, rerun with -reshard-on-loss: byte-identical recovery"
pid1=$(cat "$work/worker1.log.pid")
kill "$pid1"
wait "$pid1" 2>/dev/null || true
rm -f "$work/worker1.log.pid"
"$work/seal" detect -target "$work/corpus/tree" -specs "$work/specs.json" -report \
    -shard-addrs "$addr0,$addr1" -reshard-on-loss \
    -retry-max 2 -retry-backoff 20ms -probe-interval 50ms \
    -manifest-out "$work/reshard-manifest.json" >"$work/reshard-report.txt"
diff "$work/ref-report.txt" "$work/reshard-report.txt"
python3 - "$work/reshard-manifest.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
shards = m.get("shards") or []
outcomes = sorted(s["outcome"] for s in shards)
if outcomes != ["ok", "recovered"]:
    raise SystemExit("FAIL: shard outcomes %s, want one ok + one recovered" % outcomes)
victim = next(s for s in shards if s["outcome"] == "recovered")
if not victim.get("attempt_log"):
    raise SystemExit("FAIL: recovered shard has no attempt log")
if not all(a["outcome"] == "failed" and a.get("error") for a in victim["attempt_log"]):
    raise SystemExit("FAIL: victim attempt log must be all failed with errors")
recov = victim.get("recovery") or []
if not recov or not all(r["outcome"] == "ok" for r in recov):
    raise SystemExit("FAIL: recovery provenance missing or not ok: %s" % recov)
print("   shard %d recovered via %d re-shard dispatch(es) after %d failed attempt(s)"
      % (victim["shard"], len(recov), len(victim["attempt_log"])))
EOF
echo "   byte-identical with one worker dead, recovery recorded in manifest"

echo "PASS: sharded detection byte-identical to single-process, worker loss quarantines exactly its shard, restart recovers, -reshard-on-loss recovers byte-identically"
