package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// serveClients is the number of closed-loop clients of serve-mixed, each
// on its own keep-alive connection.
const serveClients = 2

// serveSession is a resident `seal serve -spec-db` daemon and the seeded
// request mix it answers.
type serveSession struct {
	b     *bench
	dir   string
	ref   *reference
	d     *daemon
	specs []map[string]json.RawMessage // the reference specs, in file order
	// wantReport is `"report":` and the reference report as the daemon
	// encodes it: finding it in a body checks the report without decoding
	// 200 KB of JSON per request, CPU the daemon would otherwise share.
	wantReport []byte
	// next is the index of the next request of the seeded mix; the timed
	// loop and the traced pass draw from one sequence.
	next atomic.Int64
}

// setupServe imports the reference specs into a spec store, starts the
// daemon on it, waits for /readyz, and sends a first /detect so every
// region group has been computed once.
func setupServe(ctx context.Context, b *bench, w *workload, dir string, ref *reference) (session, error) {
	if err := os.WriteFile(filepath.Join(dir, "specs.json"), ref.specs, 0o644); err != nil {
		return nil, err
	}
	if err := importSpecs(ctx, b, dir, "specs.json", "store.db", ref); err != nil {
		return nil, err
	}
	var db struct {
		Specs []map[string]json.RawMessage `json:"specs"`
	}
	if err := json.Unmarshal(ref.specs, &db); err != nil {
		return nil, err
	}
	d, err := b.cli.startDaemon(ctx, dir, "-addr", "127.0.0.1:0", "-target", ref.path("tree"), "-spec-db", "store.db")
	if err != nil {
		return nil, err
	}
	var enc bytes.Buffer
	e := json.NewEncoder(&enc)
	e.SetEscapeHTML(false)
	if err := e.Encode(string(ref.report)); err != nil {
		d.stop()
		return nil, err
	}
	s := &serveSession{b: b, dir: dir, ref: ref, d: d, specs: db.Specs,
		wantReport: append([]byte(`"report":`), bytes.TrimSuffix(enc.Bytes(), []byte("\n"))...)}
	c := newClient()
	defer c.close()
	if _, _, problem := s.detect(ctx, c); problem != "" {
		s.close()
		return nil, fmt.Errorf("first /detect: %s", problem)
	}
	return s, nil
}

// client is one closed-loop client: a single keep-alive connection, and a
// buffer every response body is read into. Reusing the buffer keeps the
// benchmark from allocating close to a megabyte per /detect, garbage whose
// collection would compete with the daemon for the same two cores.
type client struct {
	hc   *http.Client
	body bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// splitmix64 is a stateless mixer: the seeded mix is a pure function of
// (seed, request index), whichever client draws the index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw is the seeded random number of request i for one purpose (salt).
func (s *serveSession) draw(i int64, salt uint64) uint64 {
	return splitmix64(splitmix64(uint64(s.b.seed)+salt) ^ uint64(i))
}

// isEdit reports whether request i of the mix is a /specs edit: exactly
// one request in each block of ten, at a seeded position.
func (s *serveSession) isEdit(i int64) bool {
	return uint64(i%10) == s.draw(i/10, 1)%10
}

// post sends one request and times it from send to the last body byte. The
// returned body is valid until c's next request.
func (c *client) post(ctx context.Context, url string, body []byte) (ms float64, status int, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(r.Body)
	r.Body.Close()
	return float64(time.Since(start).Nanoseconds()) / 1e6, r.StatusCode, c.body.Bytes(), err
}

// detect sends POST /detect {} and checks the rendered report against the
// batch reference, after the clock has stopped.
func (s *serveSession) detect(ctx context.Context, c *client) (float64, []byte, string) {
	ms, status, body, err := c.post(ctx, s.d.url+"/detect", []byte("{}"))
	if err != nil {
		return ms, nil, err.Error()
	}
	if status != http.StatusOK {
		return ms, nil, fmt.Sprintf("/detect answered %d: %s", status, lastLine(string(body)))
	}
	if bytes.Contains(body, s.wantReport) {
		return ms, body, ""
	}
	var resp struct {
		Report string `json:"report"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return ms, nil, "/detect: " + err.Error()
	}
	return ms, body, sameBytes("/detect report", []byte(resp.Report), s.ref.report)
}

// edit upserts one seeded-random reference spec with only its originPatch
// changed: the key stays, so the spec count and the report stay, while the
// owning region group's fingerprint moves.
func (s *serveSession) edit(ctx context.Context, c *client, i int64) (float64, string) {
	sp := make(map[string]json.RawMessage, len(s.specs[0]))
	orig := s.specs[s.draw(i, 2)%uint64(len(s.specs))]
	for k, v := range orig {
		sp[k] = v
	}
	var origin string
	if err := json.Unmarshal(orig["originPatch"], &origin); err != nil {
		return 0, "reference spec without originPatch"
	}
	sp["originPatch"], _ = json.Marshal(fmt.Sprintf("%s~edit%d", origin, i))
	body, err := json.Marshal(map[string]any{"upsert": map[string]any{"specs": []any{sp}}})
	if err != nil {
		return 0, err.Error()
	}
	ms, status, respBody, err := c.post(ctx, s.d.url+"/specs", body)
	if err != nil {
		return ms, err.Error()
	}
	if status != http.StatusOK {
		return ms, fmt.Sprintf("/specs answered %d: %s", status, lastLine(string(respBody)))
	}
	var resp struct {
		Specs    int `json:"specs"`
		Replaced int `json:"replaced"`
	}
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return ms, "/specs: " + err.Error()
	}
	if resp.Specs != s.ref.nSpecs || resp.Replaced != 1 {
		return ms, fmt.Sprintf("/specs edit left %d specs (%d replaced), want %d (1 replaced)", resp.Specs, resp.Replaced, s.ref.nSpecs)
	}
	return ms, ""
}

// serveSlice is how long the clients run between calibrations: short
// enough to follow the box's drift, long enough that the pauses cost 5%.
const serveSlice = 500 * time.Millisecond

// loop runs the closed-loop clients in slices of serveSlice; between
// slices both clients wait while the calibration runs.
func (s *serveSession) loop(ctx context.Context, until time.Time, maxOps int, st *samples) {
	var clients [serveClients]*client
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	var taken atomic.Int64
	for keepGoing(ctx, until, maxOps, int(taken.Load())) {
		start := time.Now()
		end := start.Add(serveSlice)
		if !until.IsZero() && until.Before(end) {
			end = until
		}
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for ctx.Err() == nil && time.Now().Before(end) {
					if n := taken.Add(1); maxOps > 0 && n > int64(maxOps) {
						return
					}
					i := s.next.Add(1) - 1
					if s.isEdit(i) {
						ms, problem := s.edit(ctx, c, i)
						st.add(opWrite, ms, 0, nil, problem)
					} else {
						ms, _, problem := s.detect(ctx, c)
						st.add(opDetect, ms, 0, nil, problem)
					}
				}
			}(c)
		}
		wg.Wait()
		st.settle(start)
	}
}

// traced sends one edit and then n detects from one client, reading each
// response's run manifest and grouped-path figures.
func (s *serveSession) traced(ctx context.Context, n int, st *samples) []tracedOp {
	c := newClient()
	defer c.close()
	ms, problem := s.edit(ctx, c, s.next.Add(1)-1)
	st.add(opWrite, ms, 0, nil, problem)
	var ops []tracedOp
	for i := 0; i < n && ctx.Err() == nil; i++ {
		start := time.Now()
		ms, body, problem := s.detect(ctx, c)
		var resp struct {
			Manifest runManifest   `json:"manifest"`
			Grouped  *groupedStats `json:"grouped"`
		}
		if problem == "" {
			if err := json.Unmarshal(body, &resp); err != nil {
				problem = "/detect: " + err.Error()
			}
		}
		st.add(opDetect, ms, 0, nil, problem)
		if problem == "" {
			ops = append(ops, tracedOp{start: start, wall: ms, man: resp.Manifest, grouped: resp.Grouped, respBytes: len(body), workers: 1})
		}
	}
	return ops
}

// residency reads the daemon's /stats: memoized results and materialized
// PDG subgraphs.
func (s *serveSession) residency(ctx context.Context) (memo, pdgFuncs float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.d.url+"/stats", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var stats struct {
		MemoEntries int `json:"memo_entries"`
		Resident    struct {
			PDGFuncs int `json:"pdg_funcs"`
		} `json:"resident"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return 0, 0, fmt.Errorf("/stats: %w", err)
	}
	return float64(stats.MemoEntries), float64(stats.Resident.PDGFuncs), nil
}

func (s *serveSession) store() string { return filepath.Join(s.dir, "store.db") }

func (s *serveSession) close() float64 { return s.d.stop() }
