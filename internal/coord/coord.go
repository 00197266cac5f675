package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
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
	// Probe enables worker health probing: a readiness gate before every
	// dispatch attempt and liveness probing of in-flight shards (zero =
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
	// SpecStore, when non-nil, names the shared paged spec store (path +
	// committed snapshot sequence) the corpus was loaded from. Jobs then
	// reference their subset by scope list against that snapshot instead of
	// shipping the specs inline; Scopes and SpecsHash are filled per job.
	SpecStore *SpecStoreRef
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

// recovExec is one re-shard-on-loss recovery job: a lost shard's group
// subset re-dispatched to a surviving worker.
type recovExec struct {
	origin  int   // the lost shard whose groups this job recovers
	target  int   // the surviving shard slot executing them
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
	plan := PlanShards(specs, len(opts.Addrs))
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	policy := opts.Retry.withDefaults()

	shardLimits := opts.Limits
	shardLimits.MaxFailures = 0 // global threshold, enforced below

	outcomes := make([]shardOutcome, plan.Shards)
	done := make(chan int)
	for si := range plan.Jobs {
		if len(plan.Jobs[si].Groups) == 0 {
			outcomes[si] = shardOutcome{res: &ShardResult{Shard: si}, attempts: 0}
			continue
		}
		go func(si int) {
			outcomes[si] = dispatch(ctx, client, opts.Addrs[si], buildJob(plan, si, targetHash, specs, opts, shardLimits), policy, opts.Probe, opts.Timeout)
			done <- si
		}(si)
	}
	for si := range plan.Jobs {
		if len(plan.Jobs[si].Groups) > 0 {
			<-done
		}
	}

	var recovs []recovExec
	if opts.ReshardOnLoss {
		recovs = reshardLost(ctx, client, plan, specs, targetHash, opts, policy, shardLimits, outcomes)
	}

	res, shards := merge(plan, specs, opts, outcomes, recovs)
	if opts.Limits.MaxFailures > 0 && len(res.Failures) > opts.Limits.MaxFailures {
		return res, shards, fmt.Errorf("detect: aborted after %d quarantined units (max %d)",
			len(res.Failures), opts.Limits.MaxFailures)
	}
	if err := ctx.Err(); err != nil {
		return res, shards, err
	}
	return res, shards, nil
}

// buildJob assembles shard si's wire job from the plan.
func buildJob(plan *Plan, si int, targetHash string, specs []*spec.Spec, opts Options, limits budget.Limits) *ShardJob {
	return subsetJob(si, plan.Shards, targetHash, specs, plan.Jobs[si].SpecIdx, opts.Workers, limits, opts.SpecStore)
}

// subsetJob builds a wire job over an arbitrary ascending spec-index
// subset — the shared core of primary and recovery dispatch. With a store
// reference, the subset travels as (snapshot, scope list, content hash)
// and the inline specs are omitted; a subset that cannot be fingerprinted
// falls back to the inline form.
func subsetJob(shard, shards int, targetHash string, specs []*spec.Spec, specIdx []int, workers int, limits budget.Limits, store *SpecStoreRef) *ShardJob {
	subset := make([]*spec.Spec, len(specIdx))
	for k, gi := range specIdx {
		subset[k] = specs[gi]
	}
	job := &ShardJob{
		Shard:      shard,
		Shards:     shards,
		TargetHash: targetHash,
		Specs:      &spec.DB{Specs: subset},
		Workers:    workers,
		Limits:     limits,
	}
	if store != nil {
		if hash, err := (&spec.DB{Specs: subset}).Hash(); err == nil {
			var scopes []string // first-appearance order = global group order
			for _, g := range detect.ScopeGroups(subset) {
				scopes = append(scopes, subset[g[0]].Scope())
			}
			job.Specs = nil
			job.SpecStore = &SpecStoreRef{
				Path:      store.Path,
				Seq:       store.Seq,
				Scopes:    scopes,
				SpecsHash: hash,
			}
		}
	}
	return job
}

// dispatch runs the full retry loop for one shard job: up to
// policy.MaxAttempts tries separated by deterministic capped backoff,
// each attempt readiness-gated and liveness-probed when probing is
// enabled. Every attempt — its backoff, probe verdict, failure reason,
// and wall clock — is recorded in the outcome's log. Retries never sleep
// past the run deadline: when the next backoff cannot complete before
// ctx's deadline, the loop stops with the retry budget exhausted.
func dispatch(ctx context.Context, client *http.Client, addr string, job *ShardJob, policy RetryPolicy, probe ProbeOptions, timeout time.Duration) shardOutcome {
	start := time.Now()
	// Encode the job once, concurrently with the first readiness probe —
	// the gate's round trip hides under the marshal, so a healthy fleet
	// pays (almost) nothing for being watched.
	var body []byte
	var bodyErr error
	bodyDone := make(chan struct{})
	go func() {
		defer close(bodyDone)
		body, bodyErr = json.Marshal(job)
	}()
	var log []obs.ShardAttempt
	var lastErr error
	attempts := 0
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		var backoff time.Duration
		if attempt > 1 {
			backoff = policy.Delay(job.Shard, attempt)
			if !sleepBudgeted(ctx, backoff) {
				lastErr = fmt.Errorf("retry budget exhausted before attempt %d (backoff %s vs run deadline): %w",
					attempt, backoff, lastErr)
				break
			}
		}
		at := obs.ShardAttempt{Attempt: attempt, Addr: addr, BackoffMS: float64(backoff.Nanoseconds()) / 1e6}
		astart := time.Now()
		attempts = attempt

		if probe.enabled() {
			if err := checkReady(ctx, client, addr, probe); err != nil {
				at.Outcome, at.Error, at.Probe = "failed", err.Error(), "not-ready"
				at.WallMS = float64(time.Since(astart).Nanoseconds()) / 1e6
				log = append(log, at)
				lastErr = err
				if ctx.Err() != nil {
					break
				}
				continue
			}
			at.Probe = "ready"
		}

		<-bodyDone
		if bodyErr != nil {
			return shardOutcome{err: fmt.Errorf("encode job: %w", bodyErr), attempts: attempt, wall: time.Since(start), log: log}
		}
		res, verdict, err := postProbed(ctx, client, addr, body, job.Shard, timeout, probe)
		at.WallMS = float64(time.Since(astart).Nanoseconds()) / 1e6
		if verdict != "" {
			at.Probe = verdict
		}
		if err == nil {
			at.Outcome = "ok"
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
func postProbed(ctx context.Context, client *http.Client, addr string, body []byte, shard int, timeout time.Duration, probe ProbeOptions) (*ShardResult, string, error) {
	actx := ctx
	var cancel context.CancelFunc
	if timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	var verdict atomic.Pointer[string]
	probeDone := make(chan struct{})
	if probe.enabled() {
		go func() {
			defer close(probeDone)
			probeLiveness(actx, client, addr, probe, &verdict, cancel)
		}()
	} else {
		close(probeDone)
	}

	res, err := post(actx, client, addr, body, shard)
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
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
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

// reshardLost builds and dispatches the recovery wave: every lost shard's
// region groups are re-partitioned across the surviving workers with the
// same ordinal machinery the primary plan uses (ShardOf over the group
// scope, reduced over the survivor list), so the assignment is a pure
// function of (plan, survivor set). Groups move whole, spec subsets keep
// global relative order, and the coordinator translates job-local
// ordinals back through each recovery job's own index — which is what
// keeps the merged output byte-identical to a single-process run.
func reshardLost(ctx context.Context, client *http.Client, plan *Plan, specs []*spec.Spec, targetHash string, opts Options, policy RetryPolicy, shardLimits budget.Limits, outcomes []shardOutcome) []recovExec {
	anyLost := false
	for si := range plan.Jobs {
		if outcomes[si].err != nil && len(plan.Jobs[si].Groups) > 0 {
			anyLost = true
			break
		}
	}
	if !anyLost {
		return nil // the steady state: recovery costs nothing when nothing burned
	}
	survivors := survivorSlots(ctx, client, plan, opts, outcomes)
	if len(survivors) == 0 {
		return nil
	}
	var execs []recovExec
	for si := range plan.Jobs {
		if outcomes[si].err == nil || len(plan.Jobs[si].Groups) == 0 {
			continue
		}
		// Partition this lost shard's groups over the survivors,
		// deterministically, one recovery job per (lost shard, survivor).
		byTarget := make(map[int][]int)
		for _, gi := range plan.Jobs[si].Groups {
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
			execs = append(execs, recovExec{origin: si, target: t, groups: groups, specIdx: specIdx})
		}
	}
	if len(execs) == 0 {
		return nil
	}
	done := make(chan struct{})
	for i := range execs {
		go func(e *recovExec) {
			job := subsetJob(e.target, plan.Shards, targetHash, specs, e.specIdx, opts.Workers, shardLimits, opts.SpecStore)
			e.oc = dispatch(ctx, client, opts.Addrs[e.target], job, policy, opts.Probe, opts.Timeout)
			done <- struct{}{}
		}(&execs[i])
	}
	for range execs {
		<-done
	}
	return execs
}

// survivorSlots lists the shard slots eligible to absorb recovered work,
// ascending: every shard whose dispatch succeeded, plus shards that owned
// no groups — verified by a readiness probe when probing is enabled,
// assumed live otherwise (a wrong assumption costs one failed recovery
// dispatch, after which the groups quarantine exactly as without
// resharding).
func survivorSlots(ctx context.Context, client *http.Client, plan *Plan, opts Options, outcomes []shardOutcome) []int {
	var out []int
	for si := range plan.Jobs {
		if si >= len(opts.Addrs) {
			break
		}
		if len(plan.Jobs[si].Groups) == 0 {
			if opts.Probe.enabled() && checkReady(ctx, client, opts.Addrs[si], opts.Probe) != nil {
				continue
			}
			out = append(out, si)
			continue
		}
		if outcomes[si].err == nil {
			out = append(out, si)
		}
	}
	return out
}

// merge folds every shard outcome — primary and recovery — into one
// Result through detect.Fold, deterministically: identical inputs and
// identical per-shard outcomes produce byte-identical output regardless of
// dispatch completion order.
func merge(plan *Plan, specs []*spec.Spec, opts Options, outcomes []shardOutcome, recovs []recovExec) (*detect.Result, []obs.ShardManifest) {
	opts.Obs.SetUnitsTotal(len(plan.Groups))
	f := detect.NewFold(plan.Scopes)
	shards := make([]obs.ShardManifest, plan.Shards)
	covered := make([]bool, len(plan.Groups))

	// fold accumulates one successful ShardResult, translating job-local
	// spec ordinals through the job's own index and replaying its unit
	// spans. Returns the bug count folded in.
	fold := func(specIdx []int, sr *ShardResult) int {
		for _, u := range sr.ManifestUnits {
			opts.Obs.ReplayUnit(u)
		}
		return f.Add(specIdx, &sr.Outcome)
	}

	for si := range outcomes {
		oc := outcomes[si]
		job := plan.Jobs[si]
		sm := obs.ShardManifest{
			Shard:      si,
			Groups:     len(job.Groups),
			Specs:      len(job.SpecIdx),
			Outcome:    "ok",
			Attempts:   oc.attempts,
			WallMS:     float64(oc.wall.Nanoseconds()) / 1e6,
			AttemptLog: oc.log,
		}
		if si < len(opts.Addrs) {
			sm.Addr = opts.Addrs[si]
		}
		if oc.err != nil {
			sm.Outcome = "lost"
			sm.Reason = oc.err.Error()
		} else {
			if oc.res != nil {
				sm.Bugs = fold(job.SpecIdx, oc.res)
			}
			for _, gi := range job.Groups {
				covered[gi] = true
			}
		}
		shards[si] = sm
	}

	// Recovery executions, in build order (lost shard ascending, target
	// ascending): fold the recovered results and record full provenance
	// on the lost shard's manifest span.
	recovFail := make(map[int]*recovExec)
	for i := range recovs {
		e := &recovs[i]
		rm := obs.ShardRecovery{
			Addr:       opts.Addrs[e.target],
			Shard:      e.target,
			Groups:     len(e.groups),
			Specs:      len(e.specIdx),
			Outcome:    "ok",
			Attempts:   e.oc.attempts,
			WallMS:     float64(e.oc.wall.Nanoseconds()) / 1e6,
			AttemptLog: e.oc.log,
		}
		if e.oc.err != nil {
			rm.Outcome = "lost"
			rm.Reason = e.oc.err.Error()
			for _, gi := range e.groups {
				recovFail[gi] = e
			}
		} else {
			rm.Bugs = fold(e.specIdx, e.oc.res)
			for _, gi := range e.groups {
				covered[gi] = true
			}
		}
		shards[e.origin].Recovery = append(shards[e.origin].Recovery, rm)
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
	for si := range outcomes {
		oc := outcomes[si]
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
