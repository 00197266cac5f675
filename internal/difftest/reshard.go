package difftest

// Re-shard-on-loss differential configuration: kill one of N workers and
// run the coordinator with recovery enabled — the merged output must be
// byte-identical to the single-process reference on the whole comparison
// surface (report, normalized records, substrate-redacted manifest and
// metrics), because every lost region group was re-executed on a
// surviving worker. The wire-fault suite then drives the same contract
// through every injected network failure mode (refuse, mid-response
// hang, truncation, corruption, slow-loris), with the probe/backoff
// machinery doing the detection instead of a closed listener.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"seal"
	"seal/internal/budget"
	"seal/internal/coord"
	"seal/internal/detect"
	"seal/internal/faultinject"
	"seal/internal/obs"
	"seal/internal/spec"
)

// reshardRetry and reshardProbe are the retry/probe configuration the
// recovery oracles run under: three attempts with a fast deterministic
// backoff and tight probing (a 160ms probe timeout, 4×Interval), so every
// failure mode resolves in test time while still exercising the full
// schedule.
var (
	reshardRetry = coord.RetryPolicy{MaxAttempts: 3, Backoff: 5 * time.Millisecond}
	reshardProbe = coord.ProbeOptions{Interval: 40 * time.Millisecond}
)

// coordRunOpts drives one coordinated detection with explicit resilience
// options and builds its comparison surface.
func coordRunOpts(ctx context.Context, files map[string]string, specs []*spec.Spec, opts coord.Options) (*shardSurface, *detect.Result, []obs.ShardManifest, error) {
	specsHash := seal.SpecSetHash(specs)
	targetHash := seal.TargetHash(files)
	rec := seal.NewRecorder()
	rec.StartRun("detect")
	opts.Obs = rec
	res, shards, runErr := coord.Detect(ctx, targetHash, specs, opts)
	if runErr != nil {
		return nil, res, shards, runErr
	}
	surf, err := surfaceOf(rec, res, len(specs), targetHash, specsHash)
	return surf, res, shards, err
}

// victimShard picks the first shard of an n-way plan that owns region
// groups (an empty shard's loss is invisible), plus the scope set it owns.
func victimShard(specs []*spec.Spec, n int) (int, map[string]bool, []string) {
	plan := coord.PlanShards(specs, n)
	for kill := 0; kill < n; kill++ {
		owned := make(map[string]bool)
		var order []string
		for gi, scope := range plan.Scopes {
			if plan.Assign[gi] == kill {
				owned[scope] = true
				order = append(order, scope)
			}
		}
		if len(order) > 0 {
			return kill, owned, order
		}
	}
	return -1, nil, nil
}

// checkRecoveredManifest asserts the recovery provenance contract on one
// run's shard manifests: the victim's outcome is "recovered" with the
// loss reason kept, a non-empty attempt log naming every failed try, and
// every recovery execution "ok" on a non-victim slot; all other shards
// are plain "ok".
func checkRecoveredManifest(divs []Divergence, conf string, shards []obs.ShardManifest, kill int) []Divergence {
	for _, sm := range shards {
		if sm.Shard != kill {
			if sm.Outcome != "ok" {
				divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " survivor outcome",
					Ref: fmt.Sprintf("shard %d ok", sm.Shard), Got: fmt.Sprintf("shard %d %s (%s)", sm.Shard, sm.Outcome, sm.Reason)})
			}
			continue
		}
		if sm.Outcome != "recovered" {
			divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " victim outcome",
				Ref: "recovered", Got: fmt.Sprintf("%s (%s)", sm.Outcome, sm.Reason)})
		}
		if sm.Reason == "" {
			divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " victim reason",
				Ref: "loss reason preserved", Got: "empty"})
		}
		if len(sm.AttemptLog) == 0 {
			divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " victim attempt log",
				Ref: "every failed attempt recorded", Got: "empty"})
		}
		for _, at := range sm.AttemptLog {
			if at.Outcome != "failed" || at.Error == "" {
				divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " victim attempt record",
					Ref: "failed attempt with reason", Got: fmt.Sprintf("attempt %d: %s (%q)", at.Attempt, at.Outcome, at.Error)})
			}
		}
		if len(sm.Recovery) == 0 {
			divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " recovery",
				Ref: "at least one recovery execution", Got: "none"})
		}
		for _, rm := range sm.Recovery {
			if rm.Outcome != "ok" {
				divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " recovery outcome",
					Ref: fmt.Sprintf("recovery on shard %d ok", rm.Shard), Got: fmt.Sprintf("%s (%s)", rm.Outcome, rm.Reason)})
			}
			if rm.Shard == kill {
				divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " recovery target",
					Ref: "a surviving shard", Got: "the victim itself"})
			}
		}
	}
	return divs
}

// RunReshardCase is the recovery half of the scale-out protocol: kill one
// of n workers (closed listener — every dispatch refused), run the
// coordinator with -reshard-on-loss semantics, and hold the merged output
// to the single-process reference byte-for-byte. Nothing quarantines: the
// lost shard's groups are re-executed on survivors, and the manifest
// records the full recovery provenance. Returns the divergences.
func RunReshardCase(seed int64, n int) ([]Divergence, error) {
	ctx := context.Background()
	files, specs, err := ShardCorpus(seed)
	if err != nil {
		return nil, err
	}
	ref, _, err := singleProcessRef(ctx, files, specs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference: %w", seed, err)
	}
	kill, _, _ := victimShard(specs, n)
	if kill < 0 {
		return nil, fmt.Errorf("seed %d: no shard of %d owns groups", seed, n)
	}
	addrs, servers, stop, err := StartWorkers(n, files)
	if err != nil {
		return nil, err
	}
	defer stop()
	servers[kill].Close() // the crash

	surf, res, shards, err := coordRunOpts(ctx, files, specs, coord.Options{
		Addrs:         addrs,
		Timeout:       30 * time.Second,
		Workers:       1,
		Retry:         reshardRetry,
		Probe:         reshardProbe,
		ReshardOnLoss: true,
	})
	if err != nil {
		return nil, fmt.Errorf("seed %d: n=%d kill=%d: %w", seed, n, kill, err)
	}

	conf := fmt.Sprintf("reshard n=%d kill=%d", n, kill)
	divs := compareSurface(nil, conf, ref, surf)
	if len(res.Failures) != 0 {
		divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " failures",
			Ref: "none (all groups recovered)", Got: fmt.Sprintf("%d quarantined", len(res.Failures))})
	}
	divs = checkRecoveredManifest(divs, conf, shards, kill)
	return divs, nil
}

// netFaultRoutes installs the wire-fault rules for one failure kind
// against the victim worker. The route choice is deliberate per kind:
// refuse is host-wide (the process is gone — the /shard POST itself is
// refused); hang wedges /shard and /healthz, so the mid-run liveness
// prober is what cuts the attempt; truncate and corrupt hit only /shard,
// exercising the decode rejection; slow hits only /shard, exercising the
// dispatch deadline.
func netFaultRoutes(p *faultinject.NetPlan, host string, kind faultinject.NetKind) {
	switch kind {
	case faultinject.NetRefuse:
		p.Add(host, "", kind)
	case faultinject.NetHang:
		p.Add(host, "/shard", kind)
		p.Add(host, "/healthz", kind)
	default: // truncate, corrupt, slow
		p.Add(host, "/shard", kind)
	}
}

// RunNetFaultSuite drives every injected wire-fault kind through the
// coordinator twice — with re-shard-on-loss (full byte-identity, nothing
// lost) and without (PR 7 isolation: exactly the victim's groups
// quarantine) — and then reruns the same workers clean to prove no
// substrate poisoning. Backoff schedules in the recorded attempt logs
// must reproduce the policy exactly. Returns the divergences.
func RunNetFaultSuite(seed int64, n int) ([]Divergence, error) {
	ctx := context.Background()
	files, specs, err := ShardCorpus(seed)
	if err != nil {
		return nil, err
	}
	ref, refRes, err := singleProcessRef(ctx, files, specs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference: %w", seed, err)
	}
	kill, lost, lostOrder := victimShard(specs, n)
	if kill < 0 {
		return nil, fmt.Errorf("seed %d: no shard of %d owns groups", seed, n)
	}
	addrs, _, stop, err := StartWorkers(n, files)
	if err != nil {
		return nil, err
	}
	defer stop()
	victimHost := strings.TrimPrefix(addrs[kill], "http://")

	var divs []Divergence
	for _, kind := range faultinject.NetKinds() {
		timeout := 30 * time.Second
		if kind == faultinject.NetSlow {
			// Slow-loris is the one mode only a deadline ends: survivors
			// answer in well under a second, the trickle cannot.
			timeout = 2 * time.Second
		}
		for _, reshard := range []bool{true, false} {
			plan := faultinject.NewNetPlan()
			netFaultRoutes(plan, victimHost, kind)
			opts := coord.Options{
				Addrs:         addrs,
				Client:        &http.Client{Transport: plan.Transport(nil)},
				Timeout:       timeout,
				Workers:       1,
				Retry:         reshardRetry,
				Probe:         reshardProbe,
				ReshardOnLoss: reshard,
			}
			conf := fmt.Sprintf("netfault kind=%s reshard=%v", kind, reshard)
			surf, res, shards, err := coordRunOpts(ctx, files, specs, opts)
			if err != nil {
				return nil, fmt.Errorf("seed %d: %s: %w", seed, conf, err)
			}
			if plan.FiredCount() == 0 {
				divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " plan",
					Ref: "injected fault fired", Got: "no request hit the faulted route"})
			}
			divs = checkAttemptSchedule(divs, conf, shards, kill, reshardRetry)
			if kind == faultinject.NetHang {
				divs = checkProbeVerdict(divs, conf, shards, kill)
			}
			if reshard {
				divs = compareSurface(divs, conf, ref, surf)
				if len(res.Failures) != 0 {
					divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " failures",
						Ref: "none (all groups recovered)", Got: fmt.Sprintf("%d quarantined", len(res.Failures))})
				}
				divs = checkRecoveredManifest(divs, conf, shards, kill)
			} else {
				divs = checkIsolation(divs, conf, res, refRes, lost, lostOrder)
			}
		}
		// No substrate poisoning: the same workers, probed and faulted a
		// moment ago, answer a clean run byte-identically.
		cleanSurf, _, cleanShards, err := coordRunOpts(ctx, files, specs, coord.Options{
			Addrs:   addrs,
			Timeout: 30 * time.Second,
			Workers: 1,
			Retry:   reshardRetry,
			Probe:   reshardProbe,
		})
		if err != nil {
			return nil, fmt.Errorf("seed %d: clean rerun after %s: %w", seed, kind, err)
		}
		conf := fmt.Sprintf("netfault kind=%s clean-rerun", kind)
		divs = compareSurface(divs, conf, ref, cleanSurf)
		for _, sm := range cleanShards {
			if sm.Outcome != "ok" {
				divs = append(divs, Divergence{Stage: "reshard", Conf: conf,
					Ref: "every shard ok", Got: fmt.Sprintf("shard %d %s (%s)", sm.Shard, sm.Outcome, sm.Reason)})
			}
		}
	}
	return divs, nil
}

// checkAttemptSchedule asserts backoff reproducibility: every backoff the
// victim's attempt log records must equal the policy's deterministic
// schedule for that (shard, attempt) — the run IS the replay.
func checkAttemptSchedule(divs []Divergence, conf string, shards []obs.ShardManifest, kill int, retry coord.RetryPolicy) []Divergence {
	for _, sm := range shards {
		if sm.Shard != kill {
			continue
		}
		for _, at := range sm.AttemptLog {
			want := float64(retry.Delay(kill, at.Attempt).Nanoseconds()) / 1e6
			if at.BackoffMS != want {
				divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " backoff schedule",
					Ref: fmt.Sprintf("attempt %d backoff %.3fms", at.Attempt, want),
					Got: fmt.Sprintf("%.3fms", at.BackoffMS)})
			}
		}
	}
	return divs
}

// checkProbeVerdict asserts the hang mode was detected by the liveness
// prober — the attempt log must carry a probe diagnosis, proving the
// hung worker was cut by probe timeout rather than the 30s dispatch
// deadline.
func checkProbeVerdict(divs []Divergence, conf string, shards []obs.ShardManifest, kill int) []Divergence {
	for _, sm := range shards {
		if sm.Shard != kill {
			continue
		}
		found := false
		for _, at := range sm.AttemptLog {
			if strings.Contains(at.Probe, "liveness probe failed") {
				found = true
			}
		}
		if !found {
			divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " probe verdict",
				Ref: "liveness prober cut the hung attempt", Got: fmt.Sprintf("attempt log %+v", sm.AttemptLog)})
		}
	}
	return divs
}

// checkIsolation asserts the PR 7 contract for a run without resharding:
// exactly the victim's region groups quarantine as shard-lost and every
// surviving record matches the reference.
func checkIsolation(divs []Divergence, conf string, res, refRes *detect.Result, lost map[string]bool, lostOrder []string) []Divergence {
	var gotFailed []string
	for _, fr := range res.Failures {
		gotFailed = append(gotFailed, fr.Unit)
		if fr.Reason != budget.ReasonShardLost {
			divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " reason",
				Ref: string(budget.ReasonShardLost), Got: fmt.Sprintf("%s: %s", fr.Unit, fr.Reason)})
		}
	}
	if got, want := strings.Join(gotFailed, ","), strings.Join(lostOrder, ","); got != want {
		divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " quarantine set", Ref: want, Got: got})
	}
	var wantRecs []detect.BugRec
	for _, r := range refRes.Recs {
		if !lost[r.SpecScope] {
			wantRecs = append(wantRecs, r)
		}
	}
	if got, want := NormalizeRecs(res.Recs), NormalizeRecs(wantRecs); got != want {
		divs = append(divs, Divergence{Stage: "reshard", Conf: conf + " survivor recs", Ref: want, Got: got})
	}
	return divs
}
