package coord

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"time"
)

// RetryPolicy governs how the coordinator re-dispatches a failing shard:
// up to MaxAttempts tries, separated by capped exponential backoff with
// deterministic jitter. The schedule is a pure function of (shard,
// attempt) — two coordinators configured identically produce
// byte-identical backoff sequences, which is what lets the recovery path
// be replayed and asserted in tests.
type RetryPolicy struct {
	// MaxAttempts is the total number of dispatch tries per shard
	// (0 or 1 = no retry). Limits.Retry never re-dispatches a shard: it
	// retries a unit inside its worker.
	MaxAttempts int
	// Backoff is the base delay before the second attempt; each further
	// attempt doubles it, up to backoffCapFactor×Backoff. Zero means
	// immediate re-dispatch.
	Backoff time.Duration
}

// backoffCapFactor bounds the exponential growth of retry backoff.
const backoffCapFactor = 8

// withDefaults resolves the zero fields: one attempt, no backoff.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.Backoff < 0 {
		p.Backoff = 0
	}
	return p
}

// Delay returns the backoff to sleep before the given attempt (attempt
// numbering starts at 1; attempt 1 never waits). The base doubles per
// attempt up to backoffCapFactor×Backoff, and is then scaled by a
// deterministic jitter factor in [0.5, 1.0) derived from (shard, attempt)
// — the spread de-synchronizes shards retrying against one struggling
// worker without sacrificing reproducibility.
func (p RetryPolicy) Delay(shard, attempt int) time.Duration {
	if attempt <= 1 || p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff
	for i := 2; i < attempt && d < backoffCapFactor*p.Backoff; i++ {
		d *= 2
	}
	// Jitter in [0.5, 1.0): half the nominal delay is guaranteed, the
	// upper half is hash-spread.
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(shard))
	binary.LittleEndian.PutUint64(buf[8:], uint64(attempt))
	h.Write(buf[:])
	frac := float64(h.Sum64()%1000) / 1000.0
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}

// sleepBudgeted waits for d unless the context is done first or the
// context deadline would expire before the sleep completes. It reports
// whether the retry may proceed: false means the retry budget (the run
// deadline) cannot absorb the wait, so the caller must stop retrying
// instead of sleeping into certain cancellation.
func sleepBudgeted(ctx context.Context, d time.Duration) bool {
	if err := ctx.Err(); err != nil {
		return false
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return false
	}
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ProbeOptions configures worker health probing. The zero value disables
// probing entirely, preserving the dispatch-only failure detection of
// earlier releases.
type ProbeOptions struct {
	// Interval enables probing when > 0: a liveness prober (`/healthz`)
	// runs alongside every in-flight shard request — a worker that hangs
	// mid-response is detected after probeFailures consecutive probe
	// misses instead of only at the shard deadline.
	Interval time.Duration
}

// probeFailures is how many consecutive probe misses declare the worker
// dead: one slow probe on a loaded host is not a verdict.
const probeFailures = 2

// enabled reports whether probing is configured.
func (po ProbeOptions) enabled() bool { return po.Interval > 0 }

// timeout bounds one probe request: 4×Interval, at least 100ms.
func (po ProbeOptions) timeout() time.Duration {
	return max(4*po.Interval, 100*time.Millisecond)
}
