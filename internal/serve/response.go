package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"seal/internal/detect"
	"seal/internal/spec"
)

// This file is the daemon's response writer. Every body is built whole in
// a pooled buffer before the header goes out, so a value that fails to
// encode still gets a structured error, the response carries its
// Content-Length, and it goes to the connection in one write. A /detect
// body — a few hundred KB of report and bug records on a real corpus — is
// appended in one pass: the report and the records by hand, every other
// field through encoding/json, byte for byte what json.Encoder with HTML
// escaping off writes for the whole DetectResponse.

// body is one response under construction: the bytes, and an encoder
// (HTML escaping off, as every serve response) that appends to them.
type body struct {
	b   []byte
	enc *json.Encoder
	err error // the first encoding failure
}

// Write appends p; it is the encoder's sink.
func (bd *body) Write(p []byte) (int, error) {
	bd.b = append(bd.b, p...)
	return len(p), nil
}

// bodies recycles response buffers, so a warm daemon answers from memory
// earlier responses already grew. It is a bounded free list rather than a
// sync.Pool: a pool is emptied by every second collection, and a /detect
// body regrown from nothing costs twenty reallocations and copies. Four
// buffers cover the responses a daemon's few clients have in flight at
// once; a response beyond that allocates, and its buffer is dropped.
var bodies = make(chan *body, 4)

// maxPooledBody bounds the buffers the free list keeps: a rare outsized
// response is left to the collector instead of pinning its memory.
const maxPooledBody = 16 << 20

func getBody() *body {
	select {
	case bd := <-bodies:
		bd.b, bd.err = bd.b[:0], nil
		return bd
	default:
		bd := &body{}
		bd.enc = json.NewEncoder(bd)
		bd.enc.SetEscapeHTML(false)
		return bd
	}
}

func putBody(bd *body) {
	if cap(bd.b) > maxPooledBody {
		return
	}
	select {
	case bodies <- bd:
	default: // the list is full: more responses in flight than it keeps
	}
}

// value appends v's JSON encoding, newline included, as json.Encoder
// writes a whole response.
func (bd *body) value(v any) error {
	bd.err = bd.enc.Encode(v)
	return bd.err
}

// field appends key (the member's separator and quoted name) and v's JSON
// encoding. After the first failure it appends nothing.
func (bd *body) field(key string, v any) {
	if bd.err != nil {
		return
	}
	n := len(bd.b)
	bd.b = append(bd.b, key...)
	if bd.err = bd.enc.Encode(v); bd.err != nil {
		bd.b = bd.b[:n]
		return
	}
	bd.b = bd.b[:len(bd.b)-1] // Encode's newline
}

// send writes the body as the whole response.
func (bd *body) send(w http.ResponseWriter, status int) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(bd.b)))
	w.WriteHeader(status)
	w.Write(bd.b)
}

// detectResponse appends r with its fields' names, order and omitempty
// rules. Fields are passed by pointer so encoding boxes nothing; no field
// type has a pointer-receiver marshaler, so the bytes are the same.
func (bd *body) detectResponse(r *DetectResponse) error {
	bd.field(`{"epoch":`, &r.Epoch)
	bd.field(`,"target_hash":`, &r.TargetHash)
	bd.field(`,"specs_hash":`, &r.SpecsHash)
	bd.field(`,"specs":`, &r.Specs)
	if r.StoreSeq != 0 {
		bd.field(`,"store_seq":`, &r.StoreSeq)
	}
	if r.Grouped != nil {
		bd.field(`,"grouped":`, r.Grouped)
	}
	if bd.err != nil {
		return bd.err
	}
	bd.b = spec.AppendJSONString(append(bd.b, `,"report":`...), r.Report, false)
	bd.b = appendBugRecs(append(bd.b, `,"bugs":`...), r.Bugs)
	if len(r.Degraded) > 0 {
		bd.field(`,"degraded":`, &r.Degraded)
	}
	if len(r.Failures) > 0 {
		bd.field(`,"failures":`, &r.Failures)
	}
	bd.field(`,"stats":`, &r.Stats)
	if r.Manifest != nil {
		bd.field(`,"manifest":`, r.Manifest)
	}
	if r.Metrics != "" {
		bd.field(`,"metrics":`, &r.Metrics)
	}
	bd.b = append(bd.b, "}\n"...)
	return bd.err
}

// appendBugRecs appends recs as encoding/json encodes a []detect.BugRec
// with HTML escaping off: null when nil, and BugRec's field names, order
// and omitempty rules.
func appendBugRecs(b []byte, recs []detect.BugRec) []byte {
	if recs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range recs {
		r := &recs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = str(b, `{"kind":`, r.Kind)
		b = str(b, `,"fn":`, r.Fn)
		b = str(b, `,"file":`, r.File)
		b = str(b, `,"message":`, r.Message)
		b = str(b, `,"spec_constraint":`, r.SpecConstraint)
		if r.SpecCond != "" {
			b = str(b, `,"spec_cond":`, r.SpecCond)
		}
		b = str(b, `,"spec_scope":`, r.SpecScope)
		b = str(b, `,"spec_origin_patch":`, r.SpecOriginPatch)
		b = str(b, `,"spec_origin":`, r.SpecOrigin)
		if r.Trace != "" {
			b = str(b, `,"trace":`, r.Trace)
		}
		if r.TraceTruncated {
			b = append(b, `,"trace_truncated":true`...)
		}
		if r.Trace2 != "" {
			b = str(b, `,"trace2":`, r.Trace2)
		}
		if r.Trace2Truncated {
			b = append(b, `,"trace2_truncated":true`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// str appends key and v quoted.
func str(b []byte, key, v string) []byte {
	return spec.AppendJSONString(append(b, key...), v, false)
}
