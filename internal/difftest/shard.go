package difftest

// Shard-mode differential configuration: run one detection corpus through
// the coordinator/worker scale-out tier at several shard counts and hold
// every merged output to the single-process reference — report bytes,
// normalized bug records, substrate-redacted manifests, substrate-redacted
// metrics. The substrate redaction (not the plain one) is the comparison
// surface because each worker builds its own PDG substrate: a function
// reachable from groups on two shards is built twice, so raw PDG counters
// legitimately differ while everything the user sees must not.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"seal"
	"seal/internal/budget"
	"seal/internal/coord"
	"seal/internal/detect"
	"seal/internal/obs"
	"seal/internal/patch"
	"seal/internal/randprog"
	"seal/internal/report"
	"seal/internal/serve"
	"seal/internal/spec"
)

// shardSurface is the cross-substrate comparison surface of one detection
// run: everything that must be byte-identical whether the corpus ran in
// one process or sharded over N workers.
type shardSurface struct {
	report   string
	recs     string
	manifest string
	metrics  string
}

// surfaceOf builds the comparison surface from a finished run exactly as
// the CLI does (same render path, same artifact builders).
func surfaceOf(rec *seal.Recorder, res *detect.Result, nSpecs int, targetHash, specsHash string) (*shardSurface, error) {
	rendered := report.RenderDetectStdout(res.Recs, res.Degraded, res.Failures, nSpecs, true)
	art, err := seal.FinishDetectRun(rec, res, nSpecs, 1,
		serve.DetectInputs(targetHash, specsHash), 0)
	if err != nil {
		return nil, err
	}
	manifest, err := art.Manifest.RedactSubstrate().MarshalIndent()
	if err != nil {
		return nil, err
	}
	return &shardSurface{
		report:   rendered,
		recs:     NormalizeRecs(res.Recs),
		manifest: string(manifest),
		metrics:  obs.RedactTimings(art.Metrics),
	}, nil
}

// compareSurface diffs a sharded run's surface against the reference.
func compareSurface(divs []Divergence, conf string, ref, got *shardSurface) []Divergence {
	if got.report != ref.report {
		divs = append(divs, Divergence{Stage: "shard", Conf: conf + " report", Ref: ref.report, Got: got.report})
	}
	if got.recs != ref.recs {
		divs = append(divs, Divergence{Stage: "shard", Conf: conf + " recs", Ref: ref.recs, Got: got.recs})
	}
	if got.manifest != ref.manifest {
		divs = append(divs, Divergence{Stage: "shard", Conf: conf + " manifest", Ref: ref.manifest, Got: got.manifest})
	}
	if got.metrics != ref.metrics {
		divs = append(divs, Divergence{Stage: "shard", Conf: conf + " metrics", Ref: ref.metrics, Got: got.metrics})
	}
	return divs
}

// ShardCorpus builds a multi-scope detection corpus for shard runs: specs
// inferred from three generated cases (so several region groups exist to
// partition) detected against the first case's target.
func ShardCorpus(seed int64) (map[string]string, []*spec.Spec, error) {
	var dbs []*spec.DB
	for _, s := range []int64{seed, seed + 1, seed + 2} {
		c := randprog.GenPatchCase(s)
		res, err := seal.InferSpecs([]*patch.Patch{c.Patch}, seal.Options{Validate: true})
		if err != nil {
			return nil, nil, fmt.Errorf("seed %d: inference: %w", s, err)
		}
		dbs = append(dbs, res.DB)
	}
	return randprog.GenPatchCase(seed).Target, seal.MergeSpecDBs(dbs...).Specs, nil
}

// singleProcessRef runs the corpus through the ordinary in-process
// pipeline, uncached, and snapshots the comparison surface.
func singleProcessRef(ctx context.Context, files map[string]string, specs []*spec.Spec) (*shardSurface, *detect.Result, error) {
	surf, res, _, err := groupedRun(ctx, files, specs, nil)
	return surf, res, err
}

// StartWorkers spins up n in-process shard workers (full serve daemons
// over the same target) and returns their base URLs plus a shutdown
// function. Callers may close an individual server early to simulate a
// crashed worker.
func StartWorkers(n int, files map[string]string) ([]string, []*httptest.Server, func(), error) {
	addrs := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{Workers: 1}, files, nil)
		if err != nil {
			for j := 0; j < i; j++ {
				servers[j].Close()
			}
			return nil, nil, nil, err
		}
		servers[i] = httptest.NewServer(srv.Handler())
		addrs[i] = servers[i].URL
	}
	closed := false
	stop := func() {
		if closed {
			return
		}
		closed = true
		for _, ts := range servers {
			ts.Close()
		}
	}
	return addrs, servers, stop, nil
}

// coordRun drives one coordinated detection against the given workers,
// re-dispatching failing shards per retry, and builds its comparison
// surface.
func coordRun(ctx context.Context, files map[string]string, specs []*spec.Spec, addrs []string, retry coord.RetryPolicy) (*shardSurface, *detect.Result, []obs.ShardManifest, error) {
	specsHash := seal.SpecSetHash(specs)
	targetHash := seal.TargetHash(files)
	rec := seal.NewRecorder()
	rec.StartRun("detect")
	res, shards, runErr := coord.Detect(ctx, targetHash, specs, coord.Options{
		Addrs:   addrs,
		Timeout: 30 * time.Second,
		Workers: 1,
		Retry:   retry,
		Obs:     rec,
	})
	if runErr != nil {
		return nil, res, shards, runErr
	}
	surf, err := surfaceOf(rec, res, len(specs), targetHash, specsHash)
	return surf, res, shards, err
}

// RunShardCase is the scale-out differential protocol for one corpus: a
// coordinated run at every given shard count must reproduce the
// single-process reference byte-for-byte on the whole comparison surface.
// Returns the divergences.
func RunShardCase(seed int64, shardCounts []int) ([]Divergence, error) {
	ctx := context.Background()
	files, specs, err := ShardCorpus(seed)
	if err != nil {
		return nil, err
	}
	ref, _, err := singleProcessRef(ctx, files, specs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference: %w", seed, err)
	}
	var divs []Divergence
	for _, n := range shardCounts {
		addrs, _, stop, err := StartWorkers(n, files)
		if err != nil {
			return nil, fmt.Errorf("seed %d: workers: %w", seed, err)
		}
		surf, _, shards, err := coordRun(ctx, files, specs, addrs, coord.RetryPolicy{})
		stop()
		if err != nil {
			return nil, fmt.Errorf("seed %d: shards=%d: %w", seed, n, err)
		}
		conf := fmt.Sprintf("shards=%d", n)
		divs = compareSurface(divs, conf, ref, surf)
		for _, sm := range shards {
			if sm.Outcome != "ok" {
				divs = append(divs, Divergence{Stage: "shard", Conf: conf + " outcome",
					Ref: "every shard ok", Got: fmt.Sprintf("shard %d: %s (%s)", sm.Shard, sm.Outcome, sm.Reason)})
			}
		}
	}
	return divs, nil
}

// RunShardFaultCase is the robustness half of the protocol: kill one of n
// workers before dispatch and check the isolation contract — exactly the
// dead worker's region groups are quarantined with ReasonShardLost, every
// surviving group's records are byte-identical to the single-process
// reference, and the shard manifest records the loss. Returns the
// divergences.
func RunShardFaultCase(seed int64, n, kill int) ([]Divergence, error) {
	ctx := context.Background()
	files, specs, err := ShardCorpus(seed)
	if err != nil {
		return nil, err
	}
	_, refRes, err := singleProcessRef(ctx, files, specs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference: %w", seed, err)
	}
	plan := coord.PlanShards(specs, n)
	lost := make(map[string]bool)
	var lostOrder []string
	for gi, scope := range plan.Scopes {
		if plan.Assign[gi] == kill {
			lost[scope] = true
			lostOrder = append(lostOrder, scope)
		}
	}
	if len(lostOrder) == 0 {
		return nil, fmt.Errorf("seed %d: shard %d/%d owns no groups; pick another fault target", seed, kill, n)
	}

	addrs, servers, stop, err := StartWorkers(n, files)
	if err != nil {
		return nil, err
	}
	defer stop()
	servers[kill].Close() // the crash: connection refused on every dispatch

	_, res, shards, err := coordRun(ctx, files, specs, addrs, coord.RetryPolicy{MaxAttempts: 2})
	if err != nil {
		return nil, fmt.Errorf("seed %d: coordinated run: %w", seed, err)
	}

	var divs []Divergence
	// Exactly the dead shard's groups fail, in group order, as shard-lost.
	var gotFailed []string
	for _, fr := range res.Failures {
		gotFailed = append(gotFailed, fr.Unit)
		if fr.Reason != budget.ReasonShardLost {
			divs = append(divs, Divergence{Stage: "shard", Conf: "fault reason",
				Ref: string(budget.ReasonShardLost), Got: fmt.Sprintf("%s: %s", fr.Unit, fr.Reason)})
		}
		if fr.Attempts != 2 { // Retry granted one re-dispatch
			divs = append(divs, Divergence{Stage: "shard", Conf: "fault attempts",
				Ref: "2", Got: fmt.Sprintf("%s: %d", fr.Unit, fr.Attempts)})
		}
	}
	if got, want := strings.Join(gotFailed, ","), strings.Join(lostOrder, ","); got != want {
		divs = append(divs, Divergence{Stage: "shard", Conf: "fault quarantine set", Ref: want, Got: got})
	}
	// Survivors are byte-identical to the reference restricted to their scopes.
	var wantRecs []detect.BugRec
	for _, r := range refRes.Recs {
		if !lost[r.SpecScope] {
			wantRecs = append(wantRecs, r)
		}
	}
	if got, want := NormalizeRecs(res.Recs), NormalizeRecs(wantRecs); got != want {
		divs = append(divs, Divergence{Stage: "shard", Conf: "fault survivor recs", Ref: want, Got: got})
	}
	// The shard manifest records the loss, and only it.
	for _, sm := range shards {
		want := "ok"
		if sm.Shard == kill {
			want = "lost"
		}
		if sm.Outcome != want {
			divs = append(divs, Divergence{Stage: "shard", Conf: "fault shard manifest",
				Ref: fmt.Sprintf("shard %d %s", sm.Shard, want), Got: fmt.Sprintf("shard %d %s (%s)", sm.Shard, sm.Outcome, sm.Reason)})
		}
		if sm.Shard == kill && sm.Reason == "" {
			divs = append(divs, Divergence{Stage: "shard", Conf: "fault shard reason",
				Ref: "non-empty loss reason", Got: "empty"})
		}
	}
	if len(res.Failures) != len(lostOrder) {
		divs = append(divs, Divergence{Stage: "shard", Conf: "fault stats",
			Ref: fmt.Sprintf("quarantined=%d", len(lostOrder)), Got: fmt.Sprintf("quarantined=%d", len(res.Failures))})
	}
	return divs, nil
}
