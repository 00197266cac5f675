package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seal/internal/budget"
	"seal/internal/detect"
	"seal/internal/obs"
	"seal/internal/spec"
)

// Options configures one coordinated detection.
type Options struct {
	// Addrs are the worker base URLs ("http://host:port"), one per shard;
	// the shard count is len(Addrs).
	Addrs []string
	// Client is the HTTP client for dispatch (nil = http.DefaultClient).
	Client *http.Client
	// Timeout bounds one shard dispatch attempt, inclusive of the
	// worker's whole run (0 = only the run context bounds it). An attempt
	// that hangs past it fails; whether the shard is then lost depends on
	// the retry policy.
	Timeout time.Duration
	// Workers is each worker's in-process detection parallelism.
	Workers int
	// Limits is the per-unit budget. MaxFailures is enforced globally by
	// the coordinator over the merged failure list (shards receive it
	// zeroed); Retry retries a unit inside its worker and never
	// re-dispatches a shard.
	Limits budget.Limits
	// Retry is the dispatch retry policy (zero = a single attempt with no
	// backoff).
	Retry RetryPolicy
	// Probe enables liveness probing of in-flight shards (zero =
	// disabled; failures are then detected only at dispatch/deadline).
	Probe ProbeOptions
	// ReshardOnLoss re-partitions a lost shard's region groups across
	// surviving workers instead of quarantining them. Opt-in: it trades
	// the exactly-its-shard isolation invariant for completeness. The
	// recovered output is byte-identical to a single-process run.
	ReshardOnLoss bool
	// Obs, when non-nil, receives one replayed unit span per region group
	// — executed, recovered, or lost — so the merged manifest matches a
	// single-process run's after redaction.
	Obs *obs.Recorder
}

// shardOutcome is one dispatch's verdict: the result or the loss, plus
// the full per-attempt provenance.
type shardOutcome struct {
	res      *ShardResult
	err      error // non-nil ⇒ shard lost (res nil)
	attempts int
	wall     time.Duration
	log      []obs.ShardAttempt
}

// execJob is one dispatch of a region-group subset to one worker slot. A
// primary job runs shard origin's plan slice on its own worker (target ==
// origin); a recovery job carries part of lost shard origin's groups to a
// surviving slot target.
type execJob struct {
	origin  int
	target  int
	groups  []int // global group indices, ascending
	specIdx []int // global spec indices, ascending
	oc      shardOutcome
}

// Detect partitions specs over opts.Addrs, dispatches every non-empty
// shard concurrently, and merges the results into the *detect.Result a
// single-process run would produce (Bugs stays nil — rendering goes
// through Recs, exactly like a cache replay). The returned ShardManifest
// slice describes each shard's span for the run manifest, including the
// full attempt log and any recovery provenance.
//
// A lost shard (crash, hang, unreachable, probe-declared dead, target
// mismatch) quarantines exactly its region groups — one FailureRecord per
// group with budget.ReasonShardLost — unless ReshardOnLoss is set, in
// which case its groups are re-partitioned across surviving workers and
// only groups whose recovery also fails quarantine. The returned error is
// non-nil only for run-level aborts (context canceled, or the merged
// failure count exceeding Limits.MaxFailures) — the partial Result is
// valid either way.
func Detect(ctx context.Context, targetHash string, specs []*spec.Spec, opts Options) (*detect.Result, []obs.ShardManifest, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	opts.Retry = opts.Retry.withDefaults()
	plan := PlanShards(specs, len(opts.Addrs))

	// jobs holds the primary jobs, one per shard slot in shard order,
	// followed by any recovery jobs.
	jobs := make([]execJob, plan.Shards)
	for si, j := range plan.Jobs {
		jobs[si] = execJob{origin: si, target: si, groups: j.Groups, specIdx: j.SpecIdx}
	}
	dispatchAll(ctx, opts, targetHash, specs, plan.Shards, jobs)
	if opts.ReshardOnLoss {
		jobs = append(jobs, recoveryJobs(plan, jobs)...)
		dispatchAll(ctx, opts, targetHash, specs, plan.Shards, jobs[plan.Shards:])
	}

	res, shards := merge(plan, opts, jobs)
	if opts.Limits.MaxFailures > 0 && len(res.Failures) > opts.Limits.MaxFailures {
		return res, shards, fmt.Errorf("detect: aborted after %d quarantined units (max %d)",
			len(res.Failures), opts.Limits.MaxFailures)
	}
	if err := ctx.Err(); err != nil {
		return res, shards, err
	}
	return res, shards, nil
}

// dispatchAll sends every job that owns region groups to its target
// worker concurrently, each with its spec subset inline in global
// relative order, and returns once all have finished. A job without
// groups keeps its zero outcome: ok, no attempts, no result.
func dispatchAll(ctx context.Context, opts Options, targetHash string, specs []*spec.Spec, shards int, jobs []execJob) {
	limits := opts.Limits
	limits.MaxFailures = 0 // global threshold, enforced by Detect over the merge
	var wg sync.WaitGroup
	for i := range jobs {
		e := &jobs[i]
		if len(e.groups) == 0 {
			continue
		}
		subset := make([]*spec.Spec, len(e.specIdx))
		for k, gi := range e.specIdx {
			subset[k] = specs[gi]
		}
		job := &ShardJob{
			Shard:      e.target,
			Shards:     shards,
			TargetHash: targetHash,
			Specs:      &spec.DB{Specs: subset},
			Workers:    opts.Workers,
			Limits:     limits,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.oc = dispatch(ctx, opts, job)
		}()
	}
	wg.Wait()
}

// dispatch runs the full retry loop for one shard job against the worker
// in slot job.Shard: up to
// opts.Retry.MaxAttempts tries separated by deterministic capped backoff,
// each liveness-probed when probing is enabled. Every attempt — its
// backoff, probe verdict, failure reason, and wall clock — is recorded in
// the outcome's log. Retries never sleep past the run deadline: when the
// next backoff cannot complete before ctx's deadline, the loop stops with
// the retry budget exhausted.
func dispatch(ctx context.Context, opts Options, job *ShardJob) shardOutcome {
	start := time.Now()
	addr := opts.Addrs[job.Shard]
	body, err := json.Marshal(job)
	if err != nil {
		return shardOutcome{err: fmt.Errorf("encode job: %w", err), wall: time.Since(start)}
	}
	var log []obs.ShardAttempt
	var lastErr error
	attempts := 0
	for attempt := 1; attempt <= opts.Retry.MaxAttempts; attempt++ {
		var backoff time.Duration
		if attempt > 1 {
			backoff = opts.Retry.Delay(job.Shard, attempt)
			if !sleepBudgeted(ctx, backoff) {
				lastErr = fmt.Errorf("retry budget exhausted before attempt %d (backoff %s vs run deadline): %w",
					attempt, backoff, lastErr)
				break
			}
		}
		astart := time.Now()
		attempts = attempt
		res, verdict, err := postProbed(ctx, opts, addr, body, job.Shard)
		at := obs.ShardAttempt{
			Attempt:   attempt,
			Addr:      addr,
			Outcome:   "ok",
			Probe:     verdict,
			BackoffMS: float64(backoff.Nanoseconds()) / 1e6,
			WallMS:    float64(time.Since(astart).Nanoseconds()) / 1e6,
		}
		if err == nil {
			log = append(log, at)
			return shardOutcome{res: res, attempts: attempt, wall: time.Since(start), log: log}
		}
		at.Outcome, at.Error = "failed", err.Error()
		log = append(log, at)
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return shardOutcome{err: lastErr, attempts: attempts, wall: time.Since(start), log: log}
}

// postProbed performs one dispatch attempt with an optional liveness
// prober running alongside it. When the prober declares the worker dead
// it cancels the attempt; the returned verdict string carries the probe
// diagnosis so provenance can distinguish "worker hung mid-response,
// probes failed" from "request timed out against a live worker".
func postProbed(ctx context.Context, opts Options, addr string, body []byte, shard int) (*ShardResult, string, error) {
	actx := ctx
	var cancel context.CancelFunc
	if opts.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, opts.Timeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	var verdict atomic.Pointer[string]
	probeDone := make(chan struct{})
	if opts.Probe.enabled() {
		go func() {
			defer close(probeDone)
			probeLiveness(actx, opts.Client, addr, opts.Probe, &verdict, cancel)
		}()
	} else {
		close(probeDone)
	}

	res, err := post(actx, opts.Client, addr, body, shard)
	cancel()
	<-probeDone // the prober never outlives its attempt

	v := ""
	if p := verdict.Load(); p != nil {
		v = *p
		if err != nil {
			err = fmt.Errorf("%s (request error: %v)", v, err)
		}
	}
	return res, v, err
}

// post performs one dispatch request/response cycle against a
// pre-encoded job body. Any failure mode — connect error, cancellation,
// non-200, undecodable or mismatched response — fails the attempt.
func post(ctx context.Context, client *http.Client, addr string, body []byte, shard int) (*ShardResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Read as io.ReadAll would, into a pooled buffer: the body is garbage
	// once decoded (the decoded result copies every string out of it).
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, 64<<20)); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, errSnippet(data))
	}
	var sr ShardResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	if sr.Shard != shard {
		return nil, fmt.Errorf("shard mismatch: sent %d, got %d", shard, sr.Shard)
	}
	return &sr, nil
}

// bodyBufs recycles the buffers post reads shard results into. They hold
// no pointers, and sync.Pool drops idle ones at GC.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// errSnippet extracts the structured error message from a worker's JSON
// error envelope, falling back to a truncated raw body.
func errSnippet(data []byte) string {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		return env.Error.Code + ": " + env.Error.Message
	}
	s := string(data)
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// recoveryJobs plans the recovery wave: every lost shard's region groups
// are re-partitioned across the surviving workers with the same ordinal
// machinery the primary plan uses (ShardOf over the group scope, reduced
// over the survivor list), so the assignment is a pure function of (plan,
// survivor set). Groups move whole, spec subsets keep global relative
// order, and the coordinator translates job-local ordinals back through
// each recovery job's own index — which is what keeps the merged output
// byte-identical to a single-process run.
//
// A survivor is any slot whose primary job did not fail, including slots
// that owned no groups; a wrong guess costs one failed recovery dispatch,
// after which the groups quarantine exactly as without resharding.
func recoveryJobs(plan *Plan, primary []execJob) []execJob {
	var survivors []int
	for si := range primary {
		if primary[si].oc.err == nil {
			survivors = append(survivors, si)
		}
	}
	if len(survivors) == 0 || len(survivors) == len(primary) {
		return nil // nothing lost costs nothing; nobody left cannot recover
	}
	var jobs []execJob
	for si := range primary {
		if primary[si].oc.err == nil {
			continue
		}
		// Partition this lost shard's groups over the survivors,
		// deterministically, one recovery job per (lost shard, survivor).
		byTarget := make(map[int][]int)
		for _, gi := range primary[si].groups {
			t := survivors[ShardOf(plan.Scopes[gi], len(survivors))]
			byTarget[t] = append(byTarget[t], gi)
		}
		targets := make([]int, 0, len(byTarget))
		for t := range byTarget {
			targets = append(targets, t)
		}
		sort.Ints(targets)
		for _, t := range targets {
			groups := byTarget[t]
			var specIdx []int
			for _, gi := range groups {
				specIdx = append(specIdx, plan.Groups[gi]...)
			}
			sort.Ints(specIdx)
			jobs = append(jobs, execJob{origin: si, target: t, groups: groups, specIdx: specIdx})
		}
	}
	return jobs
}

// shardRecord is one job's manifest span.
func shardRecord(addrs []string, e *execJob) obs.ShardManifest {
	sm := obs.ShardManifest{
		Shard:      e.target,
		Groups:     len(e.groups),
		Specs:      len(e.specIdx),
		Outcome:    "ok",
		Attempts:   e.oc.attempts,
		WallMS:     float64(e.oc.wall.Nanoseconds()) / 1e6,
		AttemptLog: e.oc.log,
	}
	if e.target < len(addrs) {
		sm.Addr = addrs[e.target]
	}
	if e.oc.err != nil {
		sm.Outcome = "lost"
		sm.Reason = e.oc.err.Error()
	}
	return sm
}

// merge folds every job outcome — primary and recovery — into one Result
// through detect.Fold, deterministically: identical inputs and identical
// per-shard outcomes produce byte-identical output regardless of dispatch
// completion order.
func merge(plan *Plan, opts Options, jobs []execJob) (*detect.Result, []obs.ShardManifest) {
	opts.Obs.SetUnitsTotal(len(plan.Groups))
	f := detect.NewFold(plan.Scopes)
	shards := make([]obs.ShardManifest, plan.Shards)
	covered := make([]bool, len(plan.Groups))
	recovFail := make(map[int]*execJob)

	// Primary jobs in shard order, then recovery jobs in build order (lost
	// shard ascending, target ascending), each recorded on its origin's
	// span. A successful job's bugs fold in with its job-local ordinals
	// translated through its own index, and its unit spans replay.
	for i := range jobs {
		e := &jobs[i]
		sm := shardRecord(opts.Addrs, e)
		if e.oc.err == nil {
			if e.oc.res != nil {
				for _, u := range e.oc.res.ManifestUnits {
					opts.Obs.ReplayUnit(u)
				}
				sm.Bugs = f.Add(e.specIdx, &e.oc.res.Outcome)
			}
			for _, gi := range e.groups {
				covered[gi] = true
			}
		} else if i >= plan.Shards {
			for _, gi := range e.groups {
				recovFail[gi] = e
			}
		}
		if i < plan.Shards {
			shards[i] = sm
		} else {
			shards[e.origin].Recovery = append(shards[e.origin].Recovery, sm)
		}
	}
	for si := range shards {
		if shards[si].Outcome != "lost" || len(shards[si].Recovery) == 0 {
			continue
		}
		recovered := true
		for _, gi := range plan.Jobs[si].Groups {
			if !covered[gi] {
				recovered = false
				break
			}
		}
		if recovered {
			shards[si].Outcome = "recovered"
		}
	}

	// Every group still uncovered — its shard lost and never recovered —
	// quarantines with the full loss chain in the record.
	for si := range shards {
		oc := jobs[si].oc
		if oc.err == nil {
			continue
		}
		for _, gi := range plan.Jobs[si].Groups {
			if covered[gi] {
				continue
			}
			scope := plan.Scopes[gi]
			attempts := oc.attempts
			detail := fmt.Sprintf("shard %d (%s): %v", si, shards[si].Addr, oc.err)
			if e := recovFail[gi]; e != nil {
				attempts += e.oc.attempts
				detail += fmt.Sprintf("; re-shard to %d (%s): %v", e.target, opts.Addrs[e.target], e.oc.err)
			}
			f.Add(nil, &detect.Outcome{
				Units: []detect.UnitRec{{ID: scope, Specs: len(plan.Groups[gi])}},
				Failures: []*budget.FailureRecord{{
					Unit:     scope,
					Stage:    "detect",
					Reason:   budget.ReasonShardLost,
					Detail:   detail,
					Attempts: attempts,
				}},
			})
			opts.Obs.ReplayUnit(obs.UnitManifest{
				ID:       scope,
				Stage:    "detect",
				Outcome:  obs.OutcomeQuarantined,
				Reason:   string(budget.ReasonShardLost),
				Attempts: attempts,
				Specs:    len(plan.Groups[gi]),
			})
		}
	}
	return f.Result(), shards
}
