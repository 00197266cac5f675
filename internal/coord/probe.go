package coord

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// probeHealth performs one liveness probe: GET addr/healthz bounded by
// the probe timeout, expecting 200. The body is drained and discarded —
// a probe is a heartbeat, not a data channel.
func probeHealth(ctx context.Context, client *http.Client, addr string, timeout time.Duration) error {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)); err != nil {
		return fmt.Errorf("/healthz: read: %w", err) // a hung or cut body is a miss
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// probeLiveness watches one in-flight dispatch: every po.Interval it
// probes the worker's /healthz, and after probeFailures consecutive
// misses it stores the verdict and cancels the attempt — a worker that
// hangs mid-response is cut by probe timeout, not only by the shard
// deadline. The goroutine exits when ctx is done (attempt finished or
// canceled) or after delivering its verdict.
func probeLiveness(ctx context.Context, client *http.Client, addr string, po ProbeOptions, verdict *atomic.Pointer[string], cancelAttempt context.CancelFunc) {
	tick := time.NewTicker(po.Interval)
	defer tick.Stop()
	misses := 0
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if err := probeHealth(ctx, client, addr, po.timeout()); err != nil {
			if ctx.Err() != nil {
				return // attempt already over; the miss is cancellation, not death
			}
			misses++
			lastErr = err
			if misses >= probeFailures {
				v := fmt.Sprintf("liveness probe failed %d time(s): %v", misses, lastErr)
				verdict.Store(&v)
				cancelAttempt()
				return
			}
			continue
		}
		misses = 0
	}
}
