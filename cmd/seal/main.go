// Command seal is the SEAL-Go command-line interface.
//
//	seal gen    -out DIR [-eval] [-seed N]     generate a mini-Linux corpus
//	seal infer  -patches DIR -out FILE [...]   infer specs from patches
//	seal detect -target DIR -specs FILE [...]  detect bugs in a tree
//	seal specdb -db FILE <mode>                administer a spec store
//	seal serve  -target DIR [-specs FILE]      resident analysis daemon
//	seal work   -target DIR                    shard worker for `detect -shards`
//	seal eval   [-seed N] [-out FILE]          reproduce all experiments
//
// `seal detect -shards N` scales detection horizontally: the corpus is
// partitioned by region group with a deterministic hash, each shard runs
// in its own `seal work` process, and the merged output is byte-identical
// to the single-process run.
//
// A full session against a generated corpus:
//
//	seal gen -out /tmp/corpus -eval
//	seal infer -patches /tmp/corpus/patches -out /tmp/specs.json
//	seal detect -target /tmp/corpus/tree -specs /tmp/specs.json -report
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"seal"
	"seal/internal/coord"
	"seal/internal/eval"
	"seal/internal/faultinject"
	"seal/internal/kernelgen"
	"seal/internal/obs"
	"seal/internal/report"
	"seal/internal/spec"
)

// Exit codes: 0 = success, 1 = fatal error (bad input, IO failure, aborted
// run), 2 = usage error, 3 = the run completed but quarantined one or more
// units of work (their FailureRecords were reported; all other output is
// complete and trustworthy).
const (
	exitFatal      = 1
	exitUsage      = 2
	exitQuarantine = 3
)

// exitCoder lets an error choose its process exit code.
type exitCoder interface{ ExitCode() int }

// quarantineErr is the "completed with quarantined failures" outcome.
type quarantineErr struct {
	stage string
	n     int
}

func (e quarantineErr) Error() string {
	return fmt.Sprintf("%s completed with %d quarantined unit(s); other results are complete", e.stage, e.n)
}

func (e quarantineErr) ExitCode() int { return exitQuarantine }

// usageErr is a post-parse flag validation failure: a flag parsed fine
// syntactically but carries a value the command rejects. Exits 2, like
// the flag package's own parse errors.
type usageErr struct{ msg string }

func (e usageErr) Error() string { return e.msg }
func (e usageErr) ExitCode() int { return exitUsage }

// validatePositiveFlags rejects explicitly-set non-positive values of the
// named integer flags. Only flags the user actually set are checked
// (fs.Visit), so a zero default — like -max-failures 0 meaning "keep
// going" — stays valid when the flag is omitted but is rejected when
// someone writes it out expecting a threshold.
func validatePositiveFlags(fs *flag.FlagSet, cmd string, names ...string) error {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range names {
		if !set[name] {
			continue
		}
		f := fs.Lookup(name)
		v, err := strconv.ParseInt(f.Value.String(), 10, 64)
		if err != nil || v <= 0 {
			return usageErr{msg: fmt.Sprintf("%s: -%s must be > 0 (got %s)", cmd, name, f.Value.String())}
		}
	}
	return nil
}

// validatePositiveDurationFlags is validatePositiveFlags for duration
// flags: explicitly-set zero or negative durations (like -probe-interval
// 0, which would mean "probe constantly" to a naive reading) are rejected
// as usage errors, while the omitted zero default keeps its documented
// "disabled" meaning.
func validatePositiveDurationFlags(fs *flag.FlagSet, cmd string, names ...string) error {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range names {
		if !set[name] {
			continue
		}
		f := fs.Lookup(name)
		d, err := time.ParseDuration(f.Value.String())
		if err != nil || d <= 0 {
			return usageErr{msg: fmt.Sprintf("%s: -%s must be > 0 (got %s)", cmd, name, f.Value.String())}
		}
	}
	return nil
}

// validateRatioFlags rejects explicitly-set values of the named float
// flags outside (0, 1] — the shape of a dead-page compaction threshold.
// The omitted zero default keeps its documented "disabled" meaning.
func validateRatioFlags(fs *flag.FlagSet, cmd string, names ...string) error {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range names {
		if !set[name] {
			continue
		}
		f := fs.Lookup(name)
		v, err := strconv.ParseFloat(f.Value.String(), 64)
		if err != nil || v <= 0 || v > 1 {
			return usageErr{msg: fmt.Sprintf("%s: -%s must be in (0, 1] (got %s)", cmd, name, f.Value.String())}
		}
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	if faults := os.Getenv("SEAL_FAULTS"); faults != "" {
		plan, err := parseFaultSpec(faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seal: SEAL_FAULTS:", err)
			os.Exit(exitUsage)
		}
		faultinject.Set(plan)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "infer":
		err = cmdInfer(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "specs":
		err = cmdSpecs(os.Args[2:])
	case "specdb":
		err = cmdSpecDB(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "work":
		err = cmdWork(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "seal: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(exitUsage)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seal:", err)
		code := exitFatal
		var ec exitCoder
		if errors.As(err, &ec) {
			code = ec.ExitCode()
		}
		os.Exit(code)
	}
}

// parseFaultSpec parses the SEAL_FAULTS test hook: comma-separated
// "kind@stage:unit" entries (kind ∈ panic|stall|alloc-spike), e.g.
// "panic@detect:iface:vb2_ops.buf_prepare,stall@infer:patch-0003". The
// unit id may itself contain colons (detection scopes do).
func parseFaultSpec(s string) (*faultinject.Plan, error) {
	plan := faultinject.NewPlan()
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("entry %q: want kind@stage:unit", entry)
		}
		stage, unit, ok := strings.Cut(rest, ":")
		if !ok || stage == "" || unit == "" {
			return nil, fmt.Errorf("entry %q: want kind@stage:unit", entry)
		}
		var kind faultinject.Kind
		switch kindStr {
		case "panic":
			kind = faultinject.KindPanic
		case "stall":
			kind = faultinject.KindStall
		case "alloc-spike":
			kind = faultinject.KindAllocSpike
		default:
			return nil, fmt.Errorf("entry %q: unknown kind %q", entry, kindStr)
		}
		plan.Add(stage, unit, kind)
	}
	return plan, nil
}

// limitFlags is the shared robustness flag set of infer and detect.
type limitFlags struct {
	timeout     time.Duration
	budgetSteps int64
	maxFailures int
	failuresOut string
	retry       bool
}

func addLimitFlags(fs *flag.FlagSet) *limitFlags {
	lf := &limitFlags{}
	fs.DurationVar(&lf.timeout, "timeout", 0, "per-unit wall-clock deadline (one patch, or one detection region group); 0 = none")
	fs.Int64Var(&lf.budgetSteps, "budget", 0, "per-unit analysis-step budget (slicer expansions, PDG builds, solver checks); 0 = unlimited")
	fs.IntVar(&lf.maxFailures, "max-failures", 0, "abort the run once more than this many units are quarantined (must be > 0 when set; omit to keep going)")
	fs.StringVar(&lf.failuresOut, "failures-out", "", "write quarantine FailureRecords to this JSON file")
	fs.BoolVar(&lf.retry, "retry", false, "retry a quarantined unit once with a halved budget (units only; -retry-max re-dispatches shards)")
	return lf
}

func (lf *limitFlags) limits() seal.Limits {
	return seal.Limits{
		UnitTimeout: lf.timeout,
		MaxSteps:    lf.budgetSteps,
		Retry:       lf.retry,
		MaxFailures: lf.maxFailures,
	}
}

// cacheFlags is the shared persistent-cache flag set of infer and detect.
type cacheFlags struct {
	dir      string
	readOnly bool
	clear    bool
	maxBytes int64
}

func addCacheFlags(fs *flag.FlagSet) *cacheFlags {
	cf := &cacheFlags{}
	fs.StringVar(&cf.dir, "cache-dir", "", "persistent analysis cache directory (content-addressed; warm runs replay unchanged results); empty = disabled")
	fs.BoolVar(&cf.readOnly, "cache-readonly", false, "serve cache hits but never write (shared or archived caches)")
	fs.BoolVar(&cf.clear, "cache-clear", false, "remove the cache's own objects under -cache-dir before running")
	fs.Int64Var(&cf.maxBytes, "cache-max-bytes", 0, "bound the cache's total on-disk size; least-recently-used entries are evicted past it (an evicted entry just recomputes); 0 = unbounded")
	return cf
}

// prepare applies -cache-clear before the run.
func (cf *cacheFlags) prepare() error {
	if cf.clear && cf.dir != "" {
		return seal.ClearCache(cf.dir)
	}
	return nil
}

// obsFlags is the shared observability flag set of infer and detect: a
// JSON run manifest, Prometheus-text metrics, and a stderr progress ticker.
// When none is requested, no recorder is created and the pipeline pays
// only nil checks.
type obsFlags struct {
	manifestOut string
	metricsOut  string
	progress    bool
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	of := &obsFlags{}
	fs.StringVar(&of.manifestOut, "manifest-out", "", "write a JSON run manifest (inputs, per-unit outcomes, cache stats, slowest units) to this file")
	fs.StringVar(&of.metricsOut, "metrics-out", "", "write run metrics in Prometheus text exposition format to this file")
	fs.BoolVar(&of.progress, "progress", false, "print progress (units done/total, degraded, quarantined) to stderr every 2s")
	return of
}

// recorder creates the run's recorder when any observability output was
// requested; nil otherwise (the disabled instrument).
func (of *obsFlags) recorder(command string) *obs.Recorder {
	if of.manifestOut == "" && of.metricsOut == "" && !of.progress {
		return nil
	}
	rec := obs.New()
	rec.StartRun(command)
	return rec
}

// startProgress launches the stderr ticker when requested (nil-safe Stop).
func (of *obsFlags) startProgress(rec *obs.Recorder, label string) *obs.Progress {
	if !of.progress {
		return nil
	}
	return obs.StartProgress(os.Stderr, rec, label, 0)
}

// write puts a finished run's artifacts (built by seal.FinishInferRun /
// seal.FinishDetectRun — the same builders the serve daemon uses) into the
// requested files. A nil art (observability disabled) is a no-op.
func (of *obsFlags) write(art *seal.RunArtifacts) error {
	if art == nil {
		return nil
	}
	if of.metricsOut != "" {
		if err := os.WriteFile(of.metricsOut, []byte(art.Metrics), 0o644); err != nil {
			return err
		}
	}
	if of.manifestOut != "" {
		return art.Manifest.WriteFile(of.manifestOut)
	}
	return nil
}

// writeFailures dumps the quarantine records as JSON when requested.
func (lf *limitFlags) writeFailures(frs []*seal.FailureRecord) error {
	if lf.failuresOut == "" {
		return nil
	}
	if frs == nil {
		frs = []*seal.FailureRecord{}
	}
	data, err := json.MarshalIndent(frs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(lf.failuresOut, append(data, '\n'), 0o644)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: seal <command> [flags]

commands:
  gen     generate a synthetic mini-Linux corpus (tree + patches + ground truth)
  infer   infer interface specifications from a patch directory
  detect  detect specification violations in a source tree
  specs   browse a specification database grouped by interface
  specdb  administer a spec store (import/compact/verify/query/stats)
  serve   run the resident analysis daemon (HTTP/JSON; infer/detect/edit)
  work    run a shard worker for coordinated detection (detect -shards / -shard-addrs)
  eval    reproduce every table and figure of the paper's evaluation
`)
}

// cmdSpecs renders a spec database as a per-interface catalog — the
// "dataset of interface specifications" the paper suggests kernel
// maintainers keep and grow (§9).
func cmdSpecs(args []string) error {
	fs := flag.NewFlagSet("specs", flag.ExitOnError)
	file := fs.String("file", "", "spec database from `seal infer` (required)")
	scope := fs.String("scope", "", "only show this scope (e.g. iface:vb2_ops.buf_prepare)")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("specs: -file is required")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	var db spec.DB
	if err := json.Unmarshal(data, &db); err != nil {
		return err
	}
	byScope := make(map[string][]*spec.Spec)
	var scopes []string
	for _, s := range db.Specs {
		k := s.Scope()
		if *scope != "" && k != *scope {
			continue
		}
		if _, ok := byScope[k]; !ok {
			scopes = append(scopes, k)
		}
		byScope[k] = append(byScope[k], s)
	}
	sort.Strings(scopes)
	total := 0
	for _, k := range scopes {
		fmt.Printf("%s (%d)\n", k, len(byScope[k]))
		for _, s := range byScope[k] {
			fmt.Printf("  %s  [%s, from %s]\n", s.Constraint.String(), s.Origin, s.OriginPatch)
		}
		total += len(byScope[k])
		fmt.Println()
	}
	fmt.Printf("%d specifications across %d scopes\n", total, len(scopes))
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output directory (required)")
	evalSize := fs.Bool("eval", false, "use the full evaluation corpus size")
	seed := fs.Int64("seed", 0, "override the generator seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	cfg := kernelgen.DefaultConfig()
	if *evalSize {
		cfg = kernelgen.EvalConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	corpus := kernelgen.Generate(cfg)
	if err := corpus.WriteTo(*out); err != nil {
		return err
	}
	fmt.Printf("generated %d files, %d patches, %d seeded bugs under %s\n",
		len(corpus.Files), len(corpus.Patches), len(corpus.Bugs), *out)
	return nil
}

func cmdInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	patchesDir := fs.String("patches", "", "patch directory (required)")
	out := fs.String("out", "", "output spec database file (required)")
	workers := fs.Int("workers", 1, "concurrent patch workers")
	noValidate := fs.Bool("no-validate", false, "skip quantifier validation (paper §6.3.3)")
	appendTo := fs.String("append", "", "merge into an existing spec database (incremental dataset growth, paper §9)")
	specDB := fs.String("spec-db", "", "also import the inferred specs into this spec store (first-wins by key, created when missing)")
	verbose := fs.Bool("v", false, "per-patch statistics")
	failFast := fs.Bool("fail-fast", false, "abort at the first quarantined patch (exit 1) instead of continuing")
	lf := addLimitFlags(fs)
	of := addObsFlags(fs)
	cf := addCacheFlags(fs)
	fs.Parse(args)
	if err := validatePositiveFlags(fs, "infer", "workers", "max-failures"); err != nil {
		return err
	}
	if *patchesDir == "" || *out == "" {
		return fmt.Errorf("infer: -patches and -out are required")
	}
	if err := cf.prepare(); err != nil {
		return err
	}
	patches, err := kernelgen.LoadPatches(*patchesDir)
	if err != nil {
		return err
	}
	rec := of.recorder("infer")
	pg := of.startProgress(rec, "infer")
	res, runErr := seal.InferSpecsContext(context.Background(), patches, seal.Options{
		Validate:      !*noValidate,
		Workers:       *workers,
		Limits:        lf.limits(),
		FailFast:      *failFast,
		Obs:           rec,
		CacheDir:      cf.dir,
		CacheReadOnly: cf.readOnly,
		CacheMaxBytes: cf.maxBytes,
	})
	pg.Stop()
	for _, d := range res.Degraded {
		fmt.Fprintln(os.Stderr, "seal:", d.String())
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "seal:", f.String())
	}
	if err := lf.writeFailures(res.Failures); err != nil {
		return err
	}
	finishObs := func() error {
		inputs := map[string]string{"patches": *patchesDir, "out": *out}
		if *noValidate {
			inputs["validate"] = "false"
		}
		art, err := seal.FinishInferRun(rec, res, len(patches), *workers, inputs)
		if err != nil {
			return err
		}
		return of.write(art)
	}
	if runErr != nil {
		if err := finishObs(); err != nil {
			return err
		}
		return runErr
	}
	if *verbose {
		for _, o := range res.Outcomes {
			fmt.Printf("  %-40s specs=%-3d P-=%d P+=%d PΨ=%d PΩ=%d\n",
				o.PatchID, o.Specs, o.Stats.PMinus, o.Stats.PPlus, o.Stats.PPsi, o.Stats.POmega)
		}
	}
	db := res.DB
	if *appendTo != "" {
		prev, err := os.ReadFile(*appendTo)
		if err != nil {
			return fmt.Errorf("infer: -append: %w", err)
		}
		var existing spec.DB
		if err := json.Unmarshal(prev, &existing); err != nil {
			return fmt.Errorf("infer: -append: %w", err)
		}
		merged := seal.MergeSpecDBs(&existing, db)
		fmt.Printf("merged %d existing + %d new specs -> %d\n",
			len(existing.Specs), len(db.Specs), len(merged.Specs))
		db = merged
	}
	data, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if *specDB != "" {
		added, skipped, err := seal.ImportSpecStore(*specDB, db)
		if err != nil {
			return err
		}
		fmt.Printf("imported %d specs into %s (%d already present)\n", added, *specDB, skipped)
	}
	t := res.Totals()
	fmt.Printf("inferred %d specifications from %d patches (%d zero-relation) -> %s\n",
		len(db.Specs), len(patches), res.ZeroRelationPatches, *out)
	fmt.Printf("relations: P-=%d P+=%d PΨ=%d PΩ=%d\n", t.PMinus, t.PPlus, t.PPsi, t.POmega)
	if err := finishObs(); err != nil {
		return err
	}
	if n := len(res.Failures); n > 0 {
		return quarantineErr{stage: "infer", n: n}
	}
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	target := fs.String("target", "", "source tree to analyze (required)")
	specFile := fs.String("specs", "", "spec database from `seal infer` (required unless -spec-db)")
	specDB := fs.String("spec-db", "", "load specs from a spec store instead of a flat file (output is identical to -specs over the same specs)")
	full := fs.Bool("report", false, "print full bug reports (paths, specs, origins)")
	workers := fs.Int("workers", 1, "region groups computed concurrently over one shared substrate (output is identical to -workers 1)")
	stats := fs.Bool("stats", false, "print region-group and shared-substrate counters (warm vs computed groups, PDG builds, path-cache hit rate) to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	shards := fs.Int("shards", 0, "coordinate detection across this many spawned `seal work` processes, merged deterministically (0 = in-process)")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated worker base URLs (http://host:port) to shard across instead of spawning; overrides -shards")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-shard dispatch deadline; a shard exceeding it is quarantined; 0 = none")
	retryMax := fs.Int("retry-max", 0, "re-dispatch a failing shard up to this many extra times with capped exponential backoff (0 = no re-dispatch)")
	retryBackoff := fs.Duration("retry-backoff", 0, "base backoff before a shard re-dispatch, doubling per attempt with deterministic jitter (0 = immediate)")
	probeInterval := fs.Duration("probe-interval", 0, "probe worker health at this interval: /readyz gates every dispatch, /healthz watches in-flight shards (0 = disabled)")
	reshardOnLoss := fs.Bool("reshard-on-loss", false, "re-partition a lost shard's region groups across surviving workers instead of quarantining them")
	lf := addLimitFlags(fs)
	of := addObsFlags(fs)
	cf := addCacheFlags(fs)
	fs.Parse(args)
	if err := validatePositiveFlags(fs, "detect", "workers", "shards", "max-failures", "retry-max"); err != nil {
		return err
	}
	if err := validatePositiveDurationFlags(fs, "detect", "probe-interval", "retry-backoff"); err != nil {
		return err
	}
	addrs, aerr := parseShardAddrs(*shardAddrs)
	if aerr != nil {
		return usageErr{msg: fmt.Sprintf("detect: -shard-addrs: %v", aerr)}
	}
	if *reshardOnLoss && *shards == 0 && len(addrs) == 0 {
		return usageErr{msg: "detect: -reshard-on-loss requires -shards or -shard-addrs"}
	}
	if *specFile != "" && *specDB != "" {
		return usageErr{msg: "detect: -specs and -spec-db are mutually exclusive"}
	}
	if *target == "" || (*specFile == "" && *specDB == "") {
		return fmt.Errorf("detect: -target and -specs are required")
	}
	if err := cf.prepare(); err != nil {
		return err
	}
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()
	var db spec.DB
	var storeSeq uint64
	if *specDB != "" {
		specs, seq, err := seal.LoadSpecStoreSpecs(*specDB)
		if err != nil {
			return err
		}
		db.Specs, storeSeq = specs, seq
	} else {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &db); err != nil {
			return err
		}
	}
	rec := of.recorder("detect")
	var res *seal.DetectResult
	var runErr error
	var shardsMan []obs.ShardManifest
	if *shards > 0 || len(addrs) > 0 {
		retryAttempts := 0
		if *retryMax > 0 {
			retryAttempts = *retryMax + 1 // N extra re-dispatches after the first try
		}
		res, shardsMan, runErr = runShardedDetect(context.Background(), *target, db.Specs, shardedOptions{
			shards:   *shards,
			addrs:    addrs,
			timeout:  *shardTimeout,
			workers:  *workers,
			limits:   lf.limits(),
			retry:    coord.RetryPolicy{MaxAttempts: retryAttempts, Backoff: *retryBackoff},
			probe:    coord.ProbeOptions{Interval: *probeInterval},
			reshard:  *reshardOnLoss,
			rec:      rec,
			cf:       cf,
			specDB:   *specDB,
			storeSeq: storeSeq,
		})
	} else {
		pg := of.startProgress(rec, "detect")
		runOpts := seal.DetectRunOptions{
			Workers:       *workers,
			Limits:        lf.limits(),
			Obs:           rec,
			CacheDir:      cf.dir,
			CacheReadOnly: cf.readOnly,
			CacheMaxBytes: cf.maxBytes,
		}
		var gs seal.GroupedStats
		res, gs, runErr = seal.DetectDir(context.Background(), *target, db.Specs, runOpts)
		pg.Stop()
		if *stats && res != nil {
			fmt.Fprintf(os.Stderr, "grouped: %d region groups, %d warm, %d computed\n",
				gs.Groups, gs.Warm, gs.Computed)
		}
	}
	if res == nil {
		return runErr
	}
	recs, st := res.Recs, res.Stats
	if *stats {
		fmt.Fprintf(os.Stderr, "substrate: pdg builds=%d/%d calls, path cache hits=%d misses=%d (%.1f%%), index lookups=%d\n",
			st.EnsureBuilds, st.EnsureCalls, st.PathCacheHits, st.PathCacheMisses,
			100*st.PathHitRate(), st.IndexLookups)
		if st.Truncations+st.QuarantinedUnits+st.DegradedUnits+st.RetriedUnits > 0 {
			fmt.Fprintf(os.Stderr, "robustness: truncated enumerations=%d, quarantined=%d, degraded=%d, retried=%d\n",
				st.Truncations, st.QuarantinedUnits, st.DegradedUnits, st.RetriedUnits)
		}
	}
	for _, d := range res.Degraded {
		fmt.Fprintln(os.Stderr, "seal:", d.String())
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "seal:", f.String())
	}
	if err := lf.writeFailures(res.Failures); err != nil {
		return err
	}
	var renderSecs float64
	finishObs := func() error {
		specsInput := *specFile
		if *specDB != "" {
			specsInput = *specDB
		}
		inputs := map[string]string{"target": *target, "specs": specsInput}
		art, err := seal.FinishDetectRun(rec, res, len(db.Specs), *workers, inputs, renderSecs)
		if err != nil {
			return err
		}
		if art != nil && art.Manifest != nil {
			art.Manifest.Shards = shardsMan
		}
		return of.write(art)
	}
	if runErr != nil {
		if err := finishObs(); err != nil {
			return err
		}
		return runErr
	}
	renderStart := time.Now()
	fmt.Print(report.RenderDetectStdout(recs, res.Degraded, res.Failures, len(db.Specs), *full))
	renderSecs = time.Since(renderStart).Seconds()
	if err := finishObs(); err != nil {
		return err
	}
	if n := len(res.Failures); n > 0 {
		return quarantineErr{stage: "detect", n: n}
	}
	return nil
}

// startProfiles starts CPU profiling and arranges a heap profile dump; the
// returned stop function finishes both.
func startProfiles(cpuFile, memFile string) (func(), error) {
	var cpuOut *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuOut = f
	}
	return func() {
		if cpuOut != nil {
			pprof.StopCPUProfile()
			cpuOut.Close()
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "seal: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "seal: memprofile:", err)
			}
		}
	}, nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	seedFlag := fs.Int64("seed", 0, "override the corpus seed")
	out := fs.String("out", "", "also write the report to this file")
	fs.Parse(args)
	cfg := kernelgen.EvalConfig()
	if *seedFlag != 0 {
		cfg.Seed = *seedFlag
	}
	run, err := eval.NewRun(cfg)
	if err != nil {
		return err
	}
	text := run.FormatAll()
	fmt.Print(text)
	if *out != "" {
		return os.WriteFile(*out, []byte(text), 0o644)
	}
	return nil
}
