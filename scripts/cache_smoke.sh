#!/usr/bin/env bash
# End-to-end smoke for the persistent analysis cache, driving the real CLI
# the way a user would:
#
#   1. infer + detect against an empty cache (cold),
#   2. the identical run again (warm — must be served from disk),
#   3. byte-diff the bug reports and the deterministic infer and detect
#      metric series, and replay the warm detect once more at -workers 2
#      against the same -workers 1 reference,
#   4. infer against a cache filled from all patches but the first (partly
#      warm): its deterministic metric series — solver checks included —
#      must match the cold run's,
#   5. corrupt every cached entry in place and run once more: the run must
#      still exit 0, count the corruption as misses, and reproduce the
#      cold report byte-for-byte. This is done twice: once damaging each
#      entry's header, once flipping each entry's last (payload) byte.
#
# The finer-grained redacted-manifest byte-identity is enforced by
# `go test ./cmd/seal -run TestCLICache`; this script is the coarse
# binary-level gate CI runs alongside it.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cache="$work/cache"

go run ./cmd/seal gen -out "$work/corpus"

run_pipeline() { # $1 = tag
    go run ./cmd/seal infer -patches "$work/corpus/patches" -out "$work/specs.json" \
        -cache-dir "$cache" \
        -manifest-out "$work/$1-infer-manifest.json" \
        -metrics-out "$work/$1-infer-metrics.prom" >/dev/null
    go run ./cmd/seal detect -target "$work/corpus/tree" -specs "$work/specs.json" \
        -cache-dir "$cache" \
        -manifest-out "$work/$1-detect-manifest.json" \
        -metrics-out "$work/$1-detect-metrics.prom" >"$work/$1-report.txt"
}

# The metric series that must not depend on cache temperature: analysis
# results and deterministic work counters. Timing series and the cache's
# own hit/miss bookkeeping are legitimately different between runs.
stable_metrics() {
    grep -E '^seal_(detect|infer)_[a-z_]+ |^seal_solver_sat_checks_total ' "$1"
}

metric() { # $1 = file, $2 = series name
    awk -v m="$2" '$1 == m { print $2; found = 1 } END { if (!found) print 0 }' "$1"
}

echo "== cold run"
run_pipeline cold
echo "== warm run"
run_pipeline warm

echo "== diff: reports"
diff "$work/cold-report.txt" "$work/warm-report.txt"
echo "== diff: stable metric series"
for stage in infer detect; do
    diff <(stable_metrics "$work/cold-$stage-metrics.prom") \
         <(stable_metrics "$work/warm-$stage-metrics.prom")
done

echo "== warm detect at -workers 2"
go run ./cmd/seal detect -target "$work/corpus/tree" -specs "$work/specs.json" \
    -cache-dir "$cache" -workers 2 \
    -metrics-out "$work/warm2-detect-metrics.prom" >"$work/warm2-report.txt"
diff "$work/cold-report.txt" "$work/warm2-report.txt"
diff <(stable_metrics "$work/cold-detect-metrics.prom") \
     <(stable_metrics "$work/warm2-detect-metrics.prom")

warm_hits=$(metric "$work/warm-detect-metrics.prom" seal_pcache_hits_total)
warm_misses=$(metric "$work/warm-detect-metrics.prom" seal_pcache_misses_total)
if [ "$warm_hits" -eq 0 ] || [ "$warm_misses" -ne 0 ]; then
    echo "FAIL: warm detect was not fully served from cache (hits=$warm_hits misses=$warm_misses)" >&2
    exit 1
fi
cold_write_bytes=$(metric "$work/cold-detect-metrics.prom" seal_pcache_write_bytes_total)
warm_read_bytes=$(metric "$work/warm-detect-metrics.prom" seal_pcache_read_bytes_total)
warm_write_bytes=$(metric "$work/warm-detect-metrics.prom" seal_pcache_write_bytes_total)
if [ "$cold_write_bytes" -eq 0 ] || [ "$warm_read_bytes" -eq 0 ] || [ "$warm_write_bytes" -ne 0 ]; then
    echo "FAIL: cache byte counters off (cold wrote $cold_write_bytes, warm read $warm_read_bytes and wrote $warm_write_bytes)" >&2
    exit 1
fi

echo "== partly warm infer (cache filled from all patches but the first)"
mkdir -p "$work/subset"
for p in $(ls "$work/corpus/patches" | sed 1d); do
    cp -r "$work/corpus/patches/$p" "$work/subset/"
done
go run ./cmd/seal infer -patches "$work/subset" -out "$work/subset-specs.json" \
    -cache-dir "$work/partial-cache" >/dev/null
go run ./cmd/seal infer -patches "$work/corpus/patches" -out "$work/partial-specs.json" \
    -cache-dir "$work/partial-cache" \
    -metrics-out "$work/partial-infer-metrics.prom" >/dev/null
diff "$work/specs.json" "$work/partial-specs.json"
diff <(stable_metrics "$work/cold-infer-metrics.prom") \
     <(stable_metrics "$work/partial-infer-metrics.prom")
partial_misses=$(metric "$work/partial-infer-metrics.prom" seal_pcache_misses_total)
if [ "$partial_misses" -ne 1 ]; then
    echo "FAIL: partly warm infer missed $partial_misses patches, want 1" >&2
    exit 1
fi

# damage_entries overwrites bytes of every cache entry in place: "header"
# writes over offset 16, inside the entry's fixed header; "payload" flips
# each entry's last byte, leaving the header intact so only the payload
# checksum can catch it.
damage_entries() { # $1 = header | payload
    local entries=0 f size byte
    while IFS= read -r f; do
        if [ "$1" = header ]; then
            printf 'garbage' | dd of="$f" bs=1 seek=16 conv=notrunc status=none
        else
            size=$(wc -c <"$f")
            byte=$(tail -c 1 "$f" | od -An -tu1 | tr -d ' ')
            printf "\\$(printf '%03o' $((byte ^ 0x40)))" |
                dd of="$f" bs=1 seek=$((size - 1)) conv=notrunc status=none
        fi
        entries=$((entries + 1))
    done < <(find "$cache" -type f)
    if [ "$entries" -eq 0 ]; then
        echo "FAIL: no cache entries to corrupt" >&2
        exit 1
    fi
    echo "   damaged the $1 of $entries entries"
}

# Each damaged run must still exit 0, count the damage as corrupt misses,
# serve no hit, and reproduce the cold run byte-for-byte; its recompute
# rewrites every entry for the next round.
for part in header payload; do
    echo "== damaging every cache entry's $part"
    damage_entries "$part"
    echo "== corrupted-cache run (must degrade to a recompute, exit 0)"
    run_pipeline "damaged-$part"
    diff "$work/cold-report.txt" "$work/damaged-$part-report.txt"
    for stage in infer detect; do
        diff <(stable_metrics "$work/cold-$stage-metrics.prom") \
             <(stable_metrics "$work/damaged-$part-$stage-metrics.prom")
    done

    corrupt=$(metric "$work/damaged-$part-detect-metrics.prom" seal_pcache_corrupt_total)
    hits=$(metric "$work/damaged-$part-detect-metrics.prom" seal_pcache_hits_total)
    if [ "$corrupt" -eq 0 ] || [ "$hits" -ne 0 ]; then
        echo "FAIL: damaged ${part}s were not detected as misses (corrupt=$corrupt hits=$hits)" >&2
        exit 1
    fi
done

echo "PASS: warm and partly warm runs byte-identical, warm fully cached; corruption degraded to a clean recompute"
