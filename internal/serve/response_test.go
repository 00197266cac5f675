package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"seal"
	"seal/internal/budget"
	"seal/internal/detect"
	"seal/internal/faultinject"
	"seal/internal/kernelgen"
	"seal/internal/spec"
)

// encoderBytes is what the daemon wrote for v before bodies were appended
// by hand: json.Encoder, HTML escaping off, trailing newline.
func encoderBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// post sends one request through the handler stack and returns the raw
// response, checking that it declares its own length.
func post(t *testing.T, srv *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if cl := rw.Header().Get("Content-Length"); cl != strconv.Itoa(rw.Body.Len()) {
		t.Fatalf("POST %s: Content-Length %q for a %d-byte body", path, cl, rw.Body.Len())
	}
	return rw
}

// TestDetectResponseMatchesEncoder holds real /detect bodies to the bytes
// json.Encoder writes for the same values: plain and with the rendered
// report, on a spec-store daemon (grouped stats and store sequence set),
// for a budget-degraded run, for a run with a quarantined unit, and for an
// aborted run's 422 envelope.
func TestDetectResponseMatchesEncoder(t *testing.T) {
	_, specs := corpus(t)
	units := unitScopes(specs)
	// A memo hit replays full-fidelity groups whatever the step budget or
	// injected faults, so the faulted and budgeted cases run cold.
	flat, _ := newTestServer(t, Config{Workers: 2})
	stored, _, _ := newStoreBackedServer(t, Config{Workers: 2})
	fresh := func() *Server { srv, _ := newTestServer(t, Config{Workers: 2}); return srv }
	cases := []struct {
		name   string
		srv    *Server
		body   string
		faults []string // units that panic
		check  func(*DetectResponse) string
	}{
		{name: "plain", srv: flat, body: `{}`},
		{name: "report", srv: flat, body: `{"report":true}`},
		{name: "spec-store", srv: stored, body: `{"report":true}`, check: func(r *DetectResponse) string {
			if r.Grouped == nil || r.StoreSeq == 0 {
				return "no grouped stats or store sequence"
			}
			return ""
		}},
		{name: "degraded", srv: fresh(), body: `{"limits":{"max_steps":25}}`, check: func(r *DetectResponse) string {
			if len(r.Degraded) == 0 {
				return "nothing degraded"
			}
			return ""
		}},
		{name: "quarantined", srv: fresh(), body: `{"report":true}`, faults: units[:1], check: func(r *DetectResponse) string {
			if len(r.Failures) != 1 {
				return strconv.Itoa(len(r.Failures)) + " failures, want 1"
			}
			return ""
		}},
		{name: "aborted", srv: fresh(), body: `{"limits":{"max_failures":1}}`, faults: units},
	}
	for _, c := range cases {
		plan := faultinject.NewPlan()
		for _, u := range c.faults {
			plan.Add("detect", u, faultinject.KindPanic)
		}
		faultinject.Set(plan)
		rw := post(t, c.srv, "/detect", c.body)
		faultinject.Reset()
		got := rw.Body.Bytes()
		if c.name == "aborted" {
			var env errorEnvelope
			if rw.Code != http.StatusUnprocessableEntity || json.Unmarshal(got, &env) != nil || len(env.Error.Failures) == 0 {
				t.Fatalf("%s: status %d, body %.200s", c.name, rw.Code, got)
			}
			if want := encoderBytes(t, env); !bytes.Equal(got, want) {
				t.Errorf("%s: envelope differs from json.Encoder's:\n got %s\nwant %s", c.name, got, want)
			}
			continue
		}
		var resp DetectResponse
		if rw.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %.200s", c.name, rw.Code, got)
		}
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.check != nil {
			if msg := c.check(&resp); msg != "" {
				t.Fatalf("%s: %s", c.name, msg)
			}
		}
		if want := encoderBytes(t, &resp); !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: body differs from json.Encoder's at byte %d:\n got %.120s\nwant %.120s",
				c.name, i, got[i:], want[i:])
		}
	}
}

// fuzzPieces cuts a and b into the strings a fuzzed response is built
// from: whole, and every suffix that starts within 8 bytes, so each
// escape and multi-byte rune lands at every offset of the escaper's
// 8-byte window.
func fuzzPieces(a, b string) []string {
	out := []string{a, b, a + b, ""}
	for i := 1; i < 8; i++ {
		if i < len(a) {
			out = append(out, a[i:])
		}
		if i < len(b) {
			out = append(out, b[i:]+a)
		}
	}
	return out
}

// fuzzResponse builds a DetectResponse whose strings come from a and b and
// whose optional fields mask turns on or off.
func fuzzResponse(a, b string, mask uint32) *DetectResponse {
	ps := fuzzPieces(a, b)
	pick := func(k int) string { return ps[(int(mask>>(k%24))+k)%len(ps)] }
	on := func(bit int) bool { return mask&(1<<bit) != 0 }
	r := &DetectResponse{
		Epoch:      int64(mask),
		TargetHash: pick(0),
		SpecsHash:  pick(1),
		Specs:      int(mask % 97),
		Report:     a + "\n" + b,
	}
	if on(0) {
		r.StoreSeq = uint64(mask)
		r.Grouped = &seal.GroupedStats{Groups: 3, Warm: 2, Computed: 1}
	}
	if on(1) {
		r.Degraded = []seal.Degradation{{Unit: pick(2), Stage: "detect", Reason: budget.ReasonSteps, Detail: pick(3)}}
	}
	if on(2) {
		r.Failures = []*seal.FailureRecord{{Unit: pick(4), Stage: "detect", Reason: budget.ReasonPanic, Detail: pick(5), Attempts: 1}}
	}
	if on(3) {
		r.Manifest = &seal.Manifest{Command: "detect", Inputs: map[string]string{pick(6): pick(7)}}
	}
	if on(4) {
		r.Metrics = pick(8)
	}
	r.Stats.EnsureCalls = int64(mask)
	if n := int(mask>>5) % 6; n > 0 || on(8) {
		r.Bugs = make([]detect.BugRec, n)
		for i := range r.Bugs {
			k := 10 * (i + 1)
			r.Bugs[i] = detect.BugRec{
				Kind: pick(k), Fn: pick(k + 1), File: pick(k + 2), Message: pick(k + 3),
				SpecConstraint: pick(k + 4), SpecScope: pick(k + 5), SpecOriginPatch: pick(k + 6), SpecOrigin: pick(k + 7),
			}
			if on(9 + i%4) {
				r.Bugs[i].SpecCond = pick(k + 8)
				r.Bugs[i].Trace, r.Bugs[i].TraceTruncated = pick(k+9), on(13+i%3)
			}
			if on(16 + i%4) {
				r.Bugs[i].Trace2, r.Bugs[i].Trace2Truncated = a, on(20+i%3)
			}
		}
	}
	return r
}

// FuzzDetectResponse checks the /detect response writer against
// json.Encoder (HTML escaping off) on random records and random omitted
// fields: every string passes through the shared escaper's 8-byte fast
// path and its byte-at-a-time path at every alignment.
func FuzzDetectResponse(f *testing.F) {
	f.Add("plain ascii, long enough for two words", "NPD in drv_probe (drv.c): missing check", uint32(0))
	f.Add("ctl \b\f\x01\x1f\x7f \"quoted\" back\\slash\n\t\r", "\u2028 and \u2029 separators", uint32(0xffffffff))
	f.Add("1234567\u00e9x\u00e9\u00e9", "bad \xff\xfe utf8 \xe2\x80 cut", uint32(0x5a5a5a5a))
	f.Add("<tag>&amp; kept as is", "1234567↪ ret[kmalloc] ↪ arg0[kfree]", uint32(0x00c0ffee))
	f.Add("", "", uint32(0x100))
	f.Fuzz(func(t *testing.T, a, b string, mask uint32) {
		r := fuzzResponse(a, b, mask)
		bd := getBody()
		defer putBody(bd)
		if err := bd.detectResponse(r); err != nil {
			t.Fatal(err)
		}
		if want := encoderBytes(t, r); !bytes.Equal(bd.b, want) {
			t.Fatalf("response writer differs from json.Encoder:\n got %q\nwant %q", bd.b, want)
		}
	})
}

// TestWriteJSONUnencodable: a value encoding/json rejects answers the
// structured 500, not a 200 with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	rw := httptest.NewRecorder()
	srv.writeJSON(rw, http.StatusOK, struct {
		X float64 `json:"x"`
	}{math.NaN()})
	var env errorEnvelope
	if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
		t.Fatalf("status %d, body %q: %v", rw.Code, rw.Body.Bytes(), err)
	}
	if rw.Code != http.StatusInternalServerError || env.Error.Status != rw.Code || env.Error.Code != "internal" ||
		!strings.Contains(env.Error.Message, "NaN") {
		t.Fatalf("status %d, envelope %+v; want the 500 internal envelope naming the NaN", rw.Code, env.Error)
	}
	if cl := rw.Header().Get("Content-Length"); cl != strconv.Itoa(rw.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rw.Body.Len())
	}
}

// TestServeRejectsTrailingData: every endpoint that decodes a body takes
// one JSON value and nothing after it but whitespace.
func TestServeRejectsTrailingData(t *testing.T) {
	flat, _ := newTestServer(t, Config{Workers: 1})
	stored, _, _ := newStoreBackedServer(t, Config{Workers: 1})
	cases := []struct {
		srv         *Server
		path, value string
	}{
		{flat, "/detect", `{"workers":1}`},
		{flat, "/infer", `{"patches":[]}`},
		{flat, "/edit", `{"delete":["none.c"]}`},
		{flat, "/shard", `{"shard":0}`},
		{stored, "/specs", `{"delete":["none"]}`},
	}
	for _, c := range cases {
		for _, tail := range []string{` {"bogus":1}`, ` trailing-garbage`, `}`, `]`, ` 1`} {
			rw := post(t, c.srv, c.path, c.value+tail)
			var env errorEnvelope
			if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
				t.Fatalf("POST %s %q: %v", c.path, c.value+tail, err)
			}
			if rw.Code != http.StatusBadRequest || env.Error.Code != "bad-request" ||
				!strings.Contains(env.Error.Message, "after its JSON value") {
				t.Errorf("POST %s %q: status %d, %+v; want 400 bad-request for the trailing data",
					c.path, c.value+tail, rw.Code, env.Error)
			}
		}
	}
	if rw := post(t, flat, "/detect", "{\"workers\":1} \n\t "); rw.Code != http.StatusOK {
		t.Errorf("trailing whitespace: status %d, body %.200s", rw.Code, rw.Body.Bytes())
	}
}

// discardResponse is a ResponseWriter that keeps only the status and the
// byte count, so a benchmark measures the handler, not a copy of its body.
type discardResponse struct {
	h      http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// BenchmarkServeDetect drives a warm POST /detect {} through the handler
// stack over the cold-batch corpus (kernelgen's evaluation config at 10
// instances, seed 1) behind a spec store: what a resident daemon does per
// request once every region group is in the group memo.
func BenchmarkServeDetect(b *testing.B) {
	cfg := kernelgen.EvalConfig()
	cfg.Instances, cfg.Seed = 10, 1
	c := kernelgen.Generate(cfg)
	inf, err := seal.InferSpecs(c.Patches, seal.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	storePath := filepath.Join(b.TempDir(), "specs.specdb")
	if _, _, err := seal.ImportSpecStore(storePath, &spec.DB{Specs: inf.DB.Specs}); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Workers: 1, SpecDB: storePath}, c.Files, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	detectOnce := func() int {
		req, _ := http.NewRequestWithContext(context.Background(), http.MethodPost, "/detect", strings.NewReader("{}"))
		rw := &discardResponse{h: http.Header{}}
		h.ServeHTTP(rw, req)
		if rw.status != http.StatusOK {
			b.Fatalf("status %d", rw.status)
		}
		return rw.n
	}
	n := detectOnce() // computes every group once
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detectOnce()
	}
}
