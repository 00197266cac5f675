package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestProbedRunSendsNoReadinessProbes counts the requests a probed
// coordinated run sends each worker, with one worker failing every /shard
// POST so the retry loop and the recovery wave run too. Every dispatch
// attempt is exactly one /shard POST and nothing asks /readyz: a dead
// worker fails the POST itself, and /healthz liveness is the only probe.
func TestProbedRunSendsNoReadinessProbes(t *testing.T) {
	const n = 4
	specs := planSpecs()
	plan := PlanShards(specs, n)
	victim := -1
	for si, j := range plan.Jobs {
		if len(j.Groups) > 0 {
			victim = si
			break
		}
	}

	var mu sync.Mutex
	counts := make([]map[string]int, n)
	addrs := make([]string, n)
	for i := range addrs {
		counts[i] = make(map[string]int)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			counts[i][r.URL.Path]++
			mu.Unlock()
			if r.URL.Path != "/shard" {
				w.Write([]byte(`{"ok":true}`))
				return
			}
			var job ShardJob
			if i == victim || json.NewDecoder(r.Body).Decode(&job) != nil {
				http.Error(w, "worker down", http.StatusInternalServerError)
				return
			}
			json.NewEncoder(w).Encode(ShardResult{Shard: job.Shard})
		}))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}

	_, shards, err := Detect(context.Background(), "t", specs, Options{
		Addrs:         addrs,
		Workers:       1,
		Retry:         RetryPolicy{MaxAttempts: 2},
		Probe:         ProbeOptions{Interval: 20 * time.Millisecond},
		ReshardOnLoss: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := shards[victim].Outcome; got != "recovered" {
		t.Fatalf("victim shard %d outcome = %q, want recovered", victim, got)
	}

	want := make([]int, n)
	for si, j := range plan.Jobs {
		if len(j.Groups) > 0 {
			want[si] = 1
		}
	}
	want[victim] = 2 // both attempts
	for _, rm := range shards[victim].Recovery {
		want[rm.Shard]++
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range counts {
		if got := counts[i]["/readyz"]; got != 0 {
			t.Errorf("worker %d: %d /readyz requests, want 0", i, got)
		}
		if got := counts[i]["/shard"]; got != want[i] {
			t.Errorf("worker %d: %d /shard requests, want %d", i, got, want[i])
		}
	}
}
