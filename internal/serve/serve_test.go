package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"seal"
	"seal/internal/detect"
	"seal/internal/faultinject"
	"seal/internal/patch"
	"seal/internal/randprog"
)

// Shared test corpus: the seed-0 generated target, with specs inferred
// from the seed-0..2 patches (one per mutation kind) so detection has
// several unit scopes to exercise.
var (
	corpusOnce  sync.Once
	corpusFiles map[string]string
	corpusSpecs []*seal.Spec
	corpusErr   error
)

func corpus(t *testing.T) (map[string]string, []*seal.Spec) {
	t.Helper()
	corpusOnce.Do(func() {
		var dbs []*seal.SpecDB
		for _, seed := range []int64{0, 1, 2} {
			c := randprog.GenPatchCase(seed)
			res, err := seal.InferSpecs([]*patch.Patch{c.Patch}, seal.Options{Validate: true})
			if err != nil {
				corpusErr = fmt.Errorf("seed %d: %w", seed, err)
				return
			}
			dbs = append(dbs, res.DB)
		}
		corpusSpecs = seal.MergeSpecDBs(dbs...).Specs
		corpusFiles = randprog.GenPatchCase(0).Target
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusFiles, corpusSpecs
}

// corpusGroups is the test corpus's region-group count: the number of
// outcomes the group memo holds once every group has been computed.
func corpusGroups(t *testing.T) int {
	_, specs := corpus(t)
	return len(detect.ScopeGroups(specs))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	files, specs := corpus(t)
	srv, err := New(cfg, files, specs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// do issues one request and decodes the JSON response into out (which may
// be nil), returning the HTTP status.
func do(t *testing.T, ts *httptest.Server, method, path, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") &&
		!(resp.StatusCode == http.StatusOK && path == "/metrics") {
		t.Fatalf("%s %s: content-type %q, want JSON", method, path, ct)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, buf.String(), err)
		}
	}
	return resp.StatusCode
}

// TestServeErrorEnvelopes pins the structured error surface: every
// rejected request gets a JSON envelope with matching status and a stable
// machine-readable code — never an empty body or a dropped connection.
func TestServeErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 10})
	cases := []struct {
		method, path, body string
		wantStatus         int
		wantCode           string
	}{
		{"GET", "/detect", "", http.StatusMethodNotAllowed, "method-not-allowed"},
		{"POST", "/stats", "", http.StatusMethodNotAllowed, "method-not-allowed"},
		{"POST", "/nope", "", http.StatusNotFound, "not-found"},
		{"POST", "/detect", "{not json", http.StatusBadRequest, "bad-request"},
		{"POST", "/detect", `{"bogus_field":1}`, http.StatusBadRequest, "bad-request"},
		{"POST", "/edit", `{}`, http.StatusBadRequest, "bad-request"},
		{"POST", "/infer", `{}`, http.StatusBadRequest, "bad-request"},
		{"POST", "/detect", `{"workers":` + strings.Repeat("1", 2<<10) + `}`,
			http.StatusRequestEntityTooLarge, "body-too-large"},
	}
	for _, c := range cases {
		var env errorEnvelope
		got := do(t, ts, c.method, c.path, c.body, &env)
		if got != c.wantStatus || env.Error.Code != c.wantCode || env.Error.Status != c.wantStatus {
			t.Errorf("%s %s: status %d code %q (body status %d), want %d %q",
				c.method, c.path, got, env.Error.Code, env.Error.Status, c.wantStatus, c.wantCode)
		}
		if env.Error.Message == "" {
			t.Errorf("%s %s: empty error message", c.method, c.path)
		}
	}
}

// TestServeRequestDeadline is the budget-exhaustion regression for wall
// clock: a request that cannot finish inside the configured deadline must
// come back as a structured 503, and the daemon must keep serving.
func TestServeRequestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: time.Nanosecond})
	var env errorEnvelope
	if got := do(t, ts, "POST", "/detect", "{}", &env); got != http.StatusServiceUnavailable {
		t.Fatalf("deadline-bound detect: status %d, want 503", got)
	}
	if env.Error.Code != "request-deadline" {
		t.Fatalf("deadline-bound detect: code %q, want request-deadline", env.Error.Code)
	}
	// The daemon survives: state endpoints (which run no analysis) answer.
	var st StatsResponse
	if got := do(t, ts, "GET", "/stats", "", &st); got != http.StatusOK || st.Epoch != 1 {
		t.Fatalf("daemon unhealthy after deadline: status %d epoch %d", got, st.Epoch)
	}
	if got := do(t, ts, "GET", "/metrics", "", nil); got != http.StatusOK {
		t.Fatalf("metrics unhealthy after deadline: status %d", got)
	}
}

// unitScopes lists the unique detection scopes of the corpus specs — the
// unit ids fault injection targets.
func unitScopes(specs []*seal.Spec) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range specs {
		if sc := s.Scope(); !seen[sc] {
			seen[sc] = true
			out = append(out, sc)
		}
	}
	return out
}

// TestServeRunAbortEnvelope is the budget-exhaustion regression for the
// failure budget: a run aborted by MaxFailures must come back as a
// structured 422 carrying the quarantine records — and the very same
// daemon must then serve a clean, correct detection (no substrate
// poisoning from the mid-request quarantines).
func TestServeRunAbortEnvelope(t *testing.T) {
	_, specs := corpus(t)
	units := unitScopes(specs)
	if len(units) < 2 {
		t.Skipf("corpus has %d unit scopes; abort test needs 2+", len(units))
	}
	srv, ts := newTestServer(t, Config{Workers: 1})
	plan := faultinject.NewPlan()
	for _, u := range units {
		plan.Add("detect", u, faultinject.KindPanic)
	}
	faultinject.Set(plan)
	var env errorEnvelope
	got := do(t, ts, "POST", "/detect", `{"limits":{"max_failures":1}}`, &env)
	faultinject.Reset()
	if got != http.StatusUnprocessableEntity || env.Error.Code != "run-aborted" {
		t.Fatalf("aborted run: status %d code %q, want 422 run-aborted", got, env.Error.Code)
	}
	if len(env.Error.Failures) == 0 {
		t.Fatal("aborted run: envelope carries no quarantine records")
	}
	// Same daemon, faults cleared: the rerun must be clean and match a
	// detection over a completely fresh server.
	var after DetectResponse
	if got := do(t, ts, "POST", "/detect", "{}", &after); got != http.StatusOK {
		t.Fatalf("rerun after abort: status %d", got)
	}
	if len(after.Failures) != 0 || len(after.Degraded) != 0 {
		t.Fatalf("rerun after abort not clean: %d failures, %d degraded",
			len(after.Failures), len(after.Degraded))
	}
	_, ts2 := newTestServer(t, Config{Workers: 1})
	var fresh DetectResponse
	if got := do(t, ts2, "POST", "/detect", "{}", &fresh); got != http.StatusOK {
		t.Fatalf("fresh reference: status %d", got)
	}
	ja, _ := json.Marshal(after.Bugs)
	jf, _ := json.Marshal(fresh.Bugs)
	if !bytes.Equal(ja, jf) {
		t.Fatalf("post-abort rerun diverges from fresh server:\n%s\nvs\n%s", ja, jf)
	}
	_ = srv
}

// TestServeEditParseError checks writer-side fault containment: an edit
// that fails to parse is rejected with a structured 422 and the previous
// snapshot stays published, byte-for-byte.
func TestServeEditParseError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var before DetectResponse
	if got := do(t, ts, "POST", "/detect", "{}", &before); got != http.StatusOK {
		t.Fatalf("detect: status %d", got)
	}
	var env errorEnvelope
	got := do(t, ts, "POST", "/edit",
		`{"files":{"broken.c":"int f( {{{{"}}`, &env)
	if got != http.StatusUnprocessableEntity || env.Error.Code != "parse-error" {
		t.Fatalf("broken edit: status %d code %q, want 422 parse-error", got, env.Error.Code)
	}
	var st StatsResponse
	do(t, ts, "GET", "/stats", "", &st)
	if st.Epoch != 1 || st.TargetHash != before.TargetHash {
		t.Fatalf("rejected edit moved the snapshot: epoch %d hash %s", st.Epoch, st.TargetHash)
	}
	var after DetectResponse
	if got := do(t, ts, "POST", "/detect", "{}", &after); got != http.StatusOK {
		t.Fatalf("detect after rejected edit: status %d", got)
	}
	if after.Report != before.Report || after.Epoch != before.Epoch {
		t.Fatal("rejected edit changed detection output")
	}
}

// TestServeDeleteFile exercises the deletion path of /edit: removing a
// file invalidates its functions and detection keeps working over the
// shrunken tree.
func TestServeDeleteFile(t *testing.T) {
	files, _ := corpus(t)
	if len(files) < 2 {
		t.Skip("corpus too small to delete from")
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	body, _ := json.Marshal(EditRequest{Delete: []string{names[len(names)-1]}})
	var er EditResponse
	if got := do(t, ts, "POST", "/edit", string(body), &er); got != http.StatusOK {
		t.Fatalf("delete edit: status %d", got)
	}
	if er.Epoch != 2 || er.Files != len(files)-1 {
		t.Fatalf("delete edit: epoch %d files %d, want 2 / %d", er.Epoch, er.Files, len(files)-1)
	}
	if got := do(t, ts, "POST", "/detect", "{}", &DetectResponse{}); got != http.StatusOK {
		t.Fatalf("detect after delete: status %d", got)
	}
}

// TestServeWarmRestart checks the -cache-dir composition: a new daemon
// process over the same target and cache directory answers its first
// detect request from disk — byte-identical output, nothing recomputed.
func TestServeWarmRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 1, Cache: openCache(t, dir)})
	var cold DetectResponse
	if got := do(t, ts1, "POST", "/detect", `{"report":true}`, &cold); got != http.StatusOK {
		t.Fatalf("cold detect: status %d", got)
	}
	// "Restart": a brand-new server over the same tree and cache dir.
	_, ts2 := newTestServer(t, Config{Workers: 1, Cache: openCache(t, dir)})
	var warm DetectResponse
	if got := do(t, ts2, "POST", "/detect", `{"report":true}`, &warm); got != http.StatusOK {
		t.Fatalf("warm detect: status %d", got)
	}
	if warm.Report != cold.Report {
		t.Fatalf("warm restart report diverged:\n%s\nvs\n%s", warm.Report, cold.Report)
	}
	jw, _ := json.Marshal(warm.Bugs)
	jc, _ := json.Marshal(cold.Bugs)
	if !bytes.Equal(jw, jc) {
		t.Fatalf("warm restart bugs diverged:\n%s\nvs\n%s", jw, jc)
	}
	// The warm request replayed: the new process's substrate never ran a
	// path enumeration, and every region group is now memoized in memory.
	var st StatsResponse
	do(t, ts2, "GET", "/stats", "", &st)
	if st.Substrate.PathEnumerations != 0 {
		t.Fatalf("warm restart recomputed %d path enumerations, want 0", st.Substrate.PathEnumerations)
	}
	if want := corpusGroups(t); st.MemoEntries != want {
		t.Fatalf("warm restart memo entries = %d, want %d", st.MemoEntries, want)
	}
}

// openCache opens the unbounded, writable persistent cache under dir.
func openCache(t *testing.T, dir string) *seal.Cache {
	t.Helper()
	c, err := seal.OpenCache(dir, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServePerRequestCacheCounters checks that every request reports its
// own seal_pcache_* figures although the daemon holds one cache handle: a
// cold daemon's /detect writes every region group; a second daemon on the
// same handle answers its first /detect from disk, reporting one hit per
// group and no write; its next /detect replays from the memo and touches
// the cache not at all.
func TestServePerRequestCacheCounters(t *testing.T) {
	pc := openCache(t, t.TempDir())
	groups := float64(corpusGroups(t))
	pcache := func(ts *httptest.Server, what string) (hits, misses, writes float64) {
		t.Helper()
		var resp DetectResponse
		if got := do(t, ts, "POST", "/detect", "{}", &resp); got != http.StatusOK {
			t.Fatalf("%s detect: status %d", what, got)
		}
		c := resp.Manifest.Counters
		return c["seal_pcache_hits_total"], c["seal_pcache_misses_total"], c["seal_pcache_writes_total"]
	}
	_, cold := newTestServer(t, Config{Workers: 1, Cache: pc})
	if h, m, w := pcache(cold, "cold"); h != 0 || m != groups || w != groups {
		t.Errorf("cold detect: %v hits, %v misses, %v writes, want 0, %v, %v", h, m, w, groups, groups)
	}
	_, warm := newTestServer(t, Config{Workers: 1, Cache: pc})
	if h, m, w := pcache(warm, "warm"); h != groups || m != 0 || w != 0 {
		t.Errorf("warm detect: %v hits, %v misses, %v writes, want %v, 0, 0", h, m, w, groups)
	}
	if h, m, w := pcache(warm, "memo"); h != 0 || m != 0 || w != 0 {
		t.Errorf("memo detect: %v hits, %v misses, %v writes, want none", h, m, w)
	}
	if st := pc.Stats(); st != (seal.CacheStats{}) {
		t.Errorf("the daemon's handle counted its requests' work: %+v", st)
	}
}

// TestServeMetrics checks the scrape endpoint shape and the residency
// gauges it publishes.
func TestServeMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if got := do(t, ts, "POST", "/detect", "{}", nil); got != http.StatusOK {
		t.Fatalf("detect: status %d", got)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
	for _, want := range []string{
		"seal_serve_requests_total", "seal_serve_detects_total",
		"seal_serve_epoch 1", fmt.Sprintf("seal_serve_memo_entries %d", corpusGroups(t)),
		"seal_serve_resident_pdg_funcs",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestServeMemoReplayIdentity checks the group memo directly: the second
// identical request replays byte-identically (report and records), adds
// no memo entries and no substrate work, at a different worker count.
func TestServeMemoReplayIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var first, second DetectResponse
	if got := do(t, ts, "POST", "/detect", `{"report":true}`, &first); got != http.StatusOK {
		t.Fatalf("first detect: status %d", got)
	}
	if got := do(t, ts, "POST", "/detect", `{"report":true,"workers":4}`, &second); got != http.StatusOK {
		t.Fatalf("second detect: status %d", got)
	}
	if first.Report != second.Report {
		t.Fatalf("memo replay report diverged:\n%s\nvs\n%s", first.Report, second.Report)
	}
	var st StatsResponse
	do(t, ts, "GET", "/stats", "", &st)
	if want := corpusGroups(t); st.MemoEntries != want {
		t.Fatalf("memo entries = %d, want %d (replay must not re-store)", st.MemoEntries, want)
	}
	// The first request computed every group and the replay none, so the
	// resident's substrate total is exactly what the first one reported.
	if st.Substrate != first.Stats {
		t.Fatalf("/stats substrate = %+v, want the computing request's %+v", st.Substrate, first.Stats)
	}
}

// TestLimitsSpecNarrowsOnly pins the Config promise that a request body may
// narrow the server's budget but never widen it: with the server's caps set
// every field takes the smaller value, and where the server leaves a cap at
// 0 the request's value applies.
func TestLimitsSpecNarrowsOnly(t *testing.T) {
	capped := seal.Limits{
		UnitTimeout: 100 * time.Millisecond, MaxSteps: 100, MaxMemBytes: 1000,
		MaxPaths: 10, MaxDepth: 8, MaxFailures: 2,
	}
	cases := []struct {
		name   string
		server seal.Limits
		req    *LimitsSpec
		want   seal.Limits
	}{
		{name: "no request", server: capped, req: nil, want: capped},
		{name: "empty request", server: capped, req: &LimitsSpec{}, want: capped},
		{
			name:   "widening request keeps server caps",
			server: capped,
			req: &LimitsSpec{UnitTimeoutMS: 5000, MaxSteps: 1_000_000, MaxMemBytes: 1 << 30,
				MaxPaths: 400, MaxDepth: 24, MaxFailures: 50},
			want: capped,
		},
		{
			name:   "narrowing request applies",
			server: capped,
			req: &LimitsSpec{UnitTimeoutMS: 50, MaxSteps: 10, MaxMemBytes: 100,
				MaxPaths: 5, MaxDepth: 4, MaxFailures: 1},
			want: seal.Limits{UnitTimeout: 50 * time.Millisecond, MaxSteps: 10, MaxMemBytes: 100,
				MaxPaths: 5, MaxDepth: 4, MaxFailures: 1},
		},
		{
			name:   "mixed fields narrow independently",
			server: capped,
			req:    &LimitsSpec{MaxSteps: 1_000_000, MaxPaths: 3},
			want: seal.Limits{UnitTimeout: 100 * time.Millisecond, MaxSteps: 100, MaxMemBytes: 1000,
				MaxPaths: 3, MaxDepth: 8, MaxFailures: 2},
		},
		{
			name:   "unset server caps take the request",
			server: seal.Limits{},
			req: &LimitsSpec{UnitTimeoutMS: 5000, MaxSteps: 1_000_000, MaxMemBytes: 1 << 30,
				MaxPaths: 400, MaxDepth: 24, MaxFailures: 50},
			want: seal.Limits{UnitTimeout: 5 * time.Second, MaxSteps: 1_000_000, MaxMemBytes: 1 << 30,
				MaxPaths: 400, MaxDepth: 24, MaxFailures: 50},
		},
		{name: "unset server, empty request", server: seal.Limits{}, req: &LimitsSpec{}, want: seal.Limits{}},
		{
			name:   "retry is taken from the request",
			server: capped,
			req:    &LimitsSpec{Retry: true},
			want: seal.Limits{UnitTimeout: 100 * time.Millisecond, MaxSteps: 100, MaxMemBytes: 1000,
				MaxPaths: 10, MaxDepth: 8, MaxFailures: 2, Retry: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.req.limits(tc.server); got != tc.want {
				t.Fatalf("limits(%+v) over server %+v = %+v, want %+v", tc.req, tc.server, got, tc.want)
			}
		})
	}
}
