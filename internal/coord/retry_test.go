package coord

import (
	"context"
	"testing"
	"time"
)

// TestRetryDelayDeterministic pins the schedule contract: the backoff
// sequence is a pure function of (shard, attempt), jittered within
// [d/2, d), doubling per attempt up to 8×Backoff.
func TestRetryDelayDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, Backoff: 100 * time.Millisecond}
	q := RetryPolicy{MaxAttempts: 6, Backoff: 100 * time.Millisecond}
	for shard := 0; shard < 4; shard++ {
		if d := p.Delay(shard, 1); d != 0 {
			t.Fatalf("attempt 1 must not wait, got %v", d)
		}
		for attempt := 2; attempt <= 6; attempt++ {
			a, b := p.Delay(shard, attempt), q.Delay(shard, attempt)
			if a != b {
				t.Fatalf("shard %d attempt %d: same policy, different delays %v vs %v", shard, attempt, a, b)
			}
			nominal := min(p.Backoff<<(attempt-2), 8*p.Backoff)
			if a < nominal/2 || a >= nominal {
				t.Fatalf("shard %d attempt %d: delay %v outside [%v, %v)", shard, attempt, a, nominal/2, nominal)
			}
		}
	}
	// Different shards must get different jitter: that spread is what
	// de-synchronizes shards retrying against one struggling worker.
	spread := false
	for attempt := 2; attempt <= 6 && !spread; attempt++ {
		for shard := 1; shard < 4; shard++ {
			if p.Delay(shard, attempt) != p.Delay(0, attempt) {
				spread = true
				break
			}
		}
	}
	if !spread {
		t.Fatal("every shard got identical delays (jitter ignores the shard)")
	}
}

// TestRetryWithDefaults pins the one retry contract: a zero policy is a
// single dispatch attempt (Limits.Retry plays no part in shard
// re-dispatch), and explicit fields survive.
func TestRetryWithDefaults(t *testing.T) {
	if got := (RetryPolicy{}).withDefaults().MaxAttempts; got != 1 {
		t.Fatalf("zero policy: MaxAttempts = %d, want 1", got)
	}
	p := RetryPolicy{MaxAttempts: 4, Backoff: time.Second}.withDefaults()
	if p.MaxAttempts != 4 || p.Backoff != time.Second {
		t.Fatalf("explicit policy mangled: %+v", p)
	}
}

// TestSleepBudgeted pins the deadline-awareness contract: a retry never
// sleeps into certain cancellation.
func TestSleepBudgeted(t *testing.T) {
	if !sleepBudgeted(context.Background(), 0) {
		t.Fatal("zero sleep with no deadline must proceed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if sleepBudgeted(ctx, 10*time.Second) {
		t.Fatal("a sleep past the deadline must refuse, not wait")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("refusal took %v; it must be immediate", time.Since(start))
	}
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if sleepBudgeted(canceled, time.Millisecond) {
		t.Fatal("a canceled context must refuse the sleep")
	}
}

// TestProbeOptionDefaults pins the derived probe knobs.
func TestProbeOptionDefaults(t *testing.T) {
	var off ProbeOptions
	if off.enabled() {
		t.Fatal("zero ProbeOptions must disable probing")
	}
	po := ProbeOptions{Interval: 10 * time.Millisecond}
	if !po.enabled() || po.timeout() != 100*time.Millisecond {
		t.Fatalf("derived timeout wrong: %v, want the 100ms floor", po.timeout())
	}
	po = ProbeOptions{Interval: 50 * time.Millisecond}
	if po.timeout() != 200*time.Millisecond {
		t.Fatalf("timeout = %v, want 4×interval", po.timeout())
	}
}
