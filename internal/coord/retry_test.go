package coord

import (
	"context"
	"testing"
	"time"
)

// TestRetryDelayDeterministic pins the schedule contract: the backoff
// sequence is a pure function of (Seed, shard, attempt), jittered within
// [d/2, d), doubling per attempt up to the cap.
func TestRetryDelayDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, Backoff: 100 * time.Millisecond, Cap: 400 * time.Millisecond, Seed: 7}
	q := RetryPolicy{MaxAttempts: 5, Backoff: 100 * time.Millisecond, Cap: 400 * time.Millisecond, Seed: 7}
	for shard := 0; shard < 4; shard++ {
		if d := p.Delay(shard, 1); d != 0 {
			t.Fatalf("attempt 1 must not wait, got %v", d)
		}
		for attempt := 2; attempt <= 5; attempt++ {
			a, b := p.Delay(shard, attempt), q.Delay(shard, attempt)
			if a != b {
				t.Fatalf("shard %d attempt %d: same policy, different delays %v vs %v", shard, attempt, a, b)
			}
			nominal := p.Backoff << (attempt - 2)
			if nominal > p.Cap {
				nominal = p.Cap
			}
			if a < nominal/2 || a >= nominal {
				t.Fatalf("shard %d attempt %d: delay %v outside [%v, %v)", shard, attempt, a, nominal/2, nominal)
			}
		}
	}
	// A different seed must actually move the jitter somewhere.
	r := RetryPolicy{MaxAttempts: 5, Backoff: 100 * time.Millisecond, Cap: 400 * time.Millisecond, Seed: 8}
	moved := false
	for shard := 0; shard < 4 && !moved; shard++ {
		for attempt := 2; attempt <= 5; attempt++ {
			if r.Delay(shard, attempt) != p.Delay(shard, attempt) {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Fatal("seed change left every delay identical (jitter not seeded)")
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
	if p.MaxAttempts != 4 || p.Cap != 8*time.Second {
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
	if !po.enabled() || po.timeout() != 100*time.Millisecond || po.failures() != 2 {
		t.Fatalf("derived defaults wrong: timeout=%v failures=%d", po.timeout(), po.failures())
	}
	po = ProbeOptions{Interval: 50 * time.Millisecond}
	if po.timeout() != 200*time.Millisecond {
		t.Fatalf("timeout = %v, want 4×interval", po.timeout())
	}
	po = ProbeOptions{Interval: time.Second, Timeout: 300 * time.Millisecond, Failures: 5}
	if po.timeout() != 300*time.Millisecond || po.failures() != 5 {
		t.Fatalf("explicit knobs overridden: timeout=%v failures=%d", po.timeout(), po.failures())
	}
}
