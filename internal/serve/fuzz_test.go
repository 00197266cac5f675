package serve

// Native fuzz target over the daemon's HTTP surface. Run with
//
//	go test -run='^$' -fuzz=FuzzServeRequest ./internal/serve
//
// Seed corpus lives in testdata/fuzz/FuzzServeRequest/ (regenerate with
// `go run ./internal/difftest/gencorpus`).

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fuzzSrv is one long-lived server the fuzzer hammers — like a real
// daemon, it must absorb any request sequence (including successful
// random edits mutating its snapshot) without panicking or emitting a
// malformed response.
var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
	fuzzSrvErr  error
)

func getFuzzServer() (*Server, error) {
	fuzzSrvOnce.Do(func() {
		files := map[string]string{
			"a.c": "int fz_helper(int x) {\n\treturn x + 1;\n}\n",
			"b.c": "int fz_helper(int x);\nint fz_entry(int x) {\n\treturn fz_helper(x);\n}\n",
		}
		fuzzSrv, fuzzSrvErr = New(Config{Workers: 1, MaxBodyBytes: 4 << 10}, files, nil)
	})
	return fuzzSrv, fuzzSrvErr
}

// FuzzServeRequest feeds arbitrary (method, path, body) triples through
// the full handler stack: request parsing, budget-limit merging, the
// file-upload path of /edit, and the error envelope machinery must never
// panic, never drop a response, and always answer with well-formed JSON
// (or Prometheus text on a successful /metrics scrape). 4xx/5xx answers
// must carry a complete structured envelope.
func FuzzServeRequest(f *testing.F) {
	f.Add("POST", "/detect", "{}")
	f.Add("POST", "/detect", `{"workers":4,"report":true,"limits":{"max_steps":10,"max_paths":1}}`)
	f.Add("POST", "/infer", `{"patches":[]}`)
	f.Add("POST", "/infer", `{"patches":[{"ID":"p","Pre":{"a.c":"int f() { return 0; }\n"},"Post":{"a.c":"int f() { return 1; }\n"}}],"publish":true}`)
	f.Add("POST", "/edit", `{"files":{"c.c":"int fz_new(void) {\n\treturn 7;\n}\n"}}`)
	f.Add("POST", "/edit", `{"files":{"c.c":"int broken( {{{"}}`)
	f.Add("POST", "/edit", `{"delete":["a.c","b.c"]}`)
	f.Add("GET", "/stats", "")
	f.Add("GET", "/metrics", "")
	f.Add("PUT", "/detect", "")
	f.Add("POST", "/unknown", "x")
	f.Add("POST", "/detect", `{"bogus":1}`)
	f.Add("POST", "/detect", `{"workers":1} {"bogus":1}`)
	f.Add("POST", "/detect", `{"workers":1} trailing-garbage`)
	f.Add("", "", "{not json")
	f.Fuzz(func(t *testing.T, method, path, body string) {
		if len(body) > 64<<10 {
			t.Skip("oversized input")
		}
		srv, err := getFuzzServer()
		if err != nil {
			t.Fatalf("building fuzz server: %v", err)
		}
		req, err := http.NewRequest(method, "http://seal.invalid"+path, strings.NewReader(body))
		if err != nil {
			return // unencodable method/path: the client library rejects it first
		}
		rw := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rw, req)
		resp := rw.Result()
		if resp.StatusCode == 0 {
			t.Fatalf("%s %q: no status written", method, path)
		}
		ct := resp.Header.Get("Content-Type")
		if resp.StatusCode == http.StatusOK && strings.HasPrefix(ct, "text/plain") {
			return // /metrics scrape
		}
		if resp.StatusCode >= 300 && resp.StatusCode < 400 {
			if resp.Header.Get("Location") == "" {
				t.Fatalf("%s %q: redirect %d without Location", method, path, resp.StatusCode)
			}
			return // ServeMux path canonicalization
		}
		if !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s %q: status %d with content-type %q, want JSON", method, path, resp.StatusCode, ct)
		}
		if !json.Valid(rw.Body.Bytes()) {
			t.Fatalf("%s %q: invalid JSON response: %q", method, path, rw.Body.String())
		}
		if resp.StatusCode >= 400 {
			var env errorEnvelope
			if err := json.Unmarshal(rw.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s %q: error response does not decode: %v", method, path, err)
			}
			if env.Error.Status != resp.StatusCode || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("%s %q: incomplete error envelope %+v for status %d",
					method, path, env.Error, resp.StatusCode)
			}
		}
	})
}
