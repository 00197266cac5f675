// Spec-level layer over the raw key/value records. Keys are spec.Key()
// — "<scope> | <constraint>" with scope "iface:NAME" or "api:NAME" —
// so one interface's specs occupy one contiguous key range and a
// region-group's spec subset is a prefix scan. Values are JSON records
// carrying the spec plus its import ordinal; Specs() returns the corpus
// sorted by ordinal, which reproduces the flat-file load order exactly
// (the byte-identity contract with the flat baseline rests on this).
package specdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"seal/internal/spec"
)

// specRecord is the stored value for one spec: {"ord":N,"db":DB}. The
// spec rides inside a single-entry spec.DB because condition trees only
// serialize through the DB-level JSON codec; it decodes as spec.DBFields,
// in the record's own json.Unmarshal pass.
type specRecord struct {
	Ord uint64         `json:"ord"`
	DB  *spec.DBFields `json:"db"`
}

// specJSON is the JSON of the one-spec spec.DB a record carries. It is
// already compact, so frameSpec splices it in rather than re-compacting.
func specJSON(sp *spec.Spec) ([]byte, error) {
	return (&spec.DB{Specs: []*spec.Spec{sp}}).MarshalJSON()
}

// frameSpec wraps a one-spec DB's JSON into a record value with its
// ordinal: what json.Marshal writes for a specRecord.
func frameSpec(ord uint64, db []byte) []byte {
	val := strconv.AppendUint(append(make([]byte, 0, len(db)+34), `{"ord":`...), ord, 10)
	return append(append(append(val, `,"db":`...), db...), '}')
}

func decodeSpec(val []byte) (uint64, *spec.Spec, error) {
	var rec specRecord
	if err := json.Unmarshal(val, &rec); err != nil {
		return 0, nil, fmt.Errorf("%w: spec record: %v", ErrCorrupt, err)
	}
	if rec.DB == nil || len(rec.DB.Specs) != 1 {
		return 0, nil, fmt.Errorf("%w: spec record holds %d specs, want 1", ErrCorrupt, recLen(rec.DB))
	}
	db, err := rec.DB.DB()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: spec record: %v", ErrCorrupt, err)
	}
	return rec.Ord, db.Specs[0], nil
}

func recLen(db *spec.DBFields) int {
	if db == nil {
		return 0
	}
	return len(db.Specs)
}

// ImportSpecs stages inserts of specs in order, first-wins on duplicate
// keys (matching spec.DB.Dedup semantics): a key already live in the
// batch's view, or staged earlier in the same input, is skipped. Flush
// applies the same rule against the store as it is then. The counts are
// the batch's view at staging time.
func (b *Batch) ImportSpecs(specs []*spec.Spec) (added, skipped int, err error) {
	for _, sp := range specs {
		key := []byte(sp.Key())
		if err := checkKey(key); err != nil {
			return added, skipped, err
		}
		if b.live(key) {
			skipped++
			continue
		}
		db, err := specJSON(sp)
		if err != nil {
			return added, skipped, err
		}
		b.stage(stagedOp{op: WALOpPut, key: key, db: db, ifAbsent: true})
		added++
	}
	return added, skipped, nil
}

// UpsertSpec stages an insert-or-replace of sp.Key(), reporting whether
// the key was absent from the batch's view. At Flush a replaced spec keeps
// its ordinal and a new one takes the next.
func (b *Batch) UpsertSpec(sp *spec.Spec) (created bool, err error) {
	key := []byte(sp.Key())
	if err := checkKey(key); err != nil {
		return false, err
	}
	db, err := specJSON(sp)
	if err != nil {
		return false, err
	}
	created = !b.live(key)
	b.stage(stagedOp{op: WALOpPut, key: key, db: db})
	return created, nil
}

// DeleteSpec stages a delete of key (a spec.Key() string), reporting
// whether the key was live in the batch's view. A miss stages nothing.
func (b *Batch) DeleteSpec(key string) bool {
	if !b.live([]byte(key)) {
		return false
	}
	b.stage(stagedOp{op: WALOpDelete, key: []byte(key)})
	return true
}

// ImportSpecs inserts specs in order, first-wins on duplicate keys, as one
// commit: the whole import lands or none of it does.
func (s *Store) ImportSpecs(specs []*spec.Spec) (added, skipped int, err error) {
	b := s.Batch()
	if added, skipped, err = b.ImportSpecs(specs); err != nil {
		return 0, 0, err
	}
	if err := b.Flush(); err != nil {
		return 0, 0, err
	}
	return added, skipped, nil
}

// UpsertSpec inserts or replaces the spec stored under sp.Key() as one
// durable commit. A replaced spec keeps its ordinal, so editing a spec
// in place does not reorder the corpus; a new spec appends at the next
// ordinal.
func (s *Store) UpsertSpec(sp *spec.Spec) (created bool, err error) {
	b := s.Batch()
	if created, err = b.UpsertSpec(sp); err != nil {
		return false, err
	}
	return created, b.Flush()
}

// DeleteSpec removes the spec stored under key (a spec.Key() string) as
// one durable commit, reporting whether it was present.
func (s *Store) DeleteSpec(key string) (bool, error) {
	b := s.Batch()
	deleted := b.DeleteSpec(key)
	return deleted, b.Flush()
}

// ordSpec pairs a decoded spec with its import ordinal for sorting.
type ordSpec struct {
	ord uint64
	sp  *spec.Spec
}

func sortByOrd(out []ordSpec) []*spec.Spec {
	sort.Slice(out, func(i, j int) bool { return out[i].ord < out[j].ord })
	specs := make([]*spec.Spec, len(out))
	for i, os := range out {
		specs[i] = os.sp
	}
	return specs
}

// Specs returns every spec in import-ordinal order — the exact order a
// flat-file load of the same corpus would produce.
func (sn *Snapshot) Specs() ([]*spec.Spec, error) {
	out := make([]ordSpec, 0, sn.Len())
	err := sn.Iterate(func(_, val []byte) (bool, error) {
		ord, sp, err := decodeSpec(val)
		if err != nil {
			return false, err
		}
		out = append(out, ordSpec{ord, sp})
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return sortByOrd(out), nil
}

// SpecByKey returns the spec stored under a spec.Key() string.
func (sn *Snapshot) SpecByKey(key string) (*spec.Spec, bool, error) {
	val, ok := sn.Get([]byte(key))
	if !ok {
		return nil, false, nil
	}
	_, sp, err := decodeSpec(val)
	if err != nil {
		return nil, false, err
	}
	return sp, true, nil
}

// scopePrefix is the key prefix shared by every spec in one scope.
func scopePrefix(scope string) []byte {
	return []byte(scope + " | ")
}

// scopeScan visits each spec in one scope in key order.
func (sn *Snapshot) scopeScan(scope string, fn func(ord uint64, sp *spec.Spec) error) error {
	prefix := scopePrefix(scope)
	return sn.IterateFrom(prefix, func(key, val []byte) (bool, error) {
		if !bytes.HasPrefix(key, prefix) {
			return false, nil
		}
		ord, sp, err := decodeSpec(val)
		if err != nil {
			return false, err
		}
		return true, fn(ord, sp)
	})
}

// ScopeSpecs returns one scope's specs in ordinal order.
func (sn *Snapshot) ScopeSpecs(scope string) ([]*spec.Spec, error) {
	var out []ordSpec
	err := sn.scopeScan(scope, func(ord uint64, sp *spec.Spec) error {
		out = append(out, ordSpec{ord, sp})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sortByOrd(out), nil
}

// Query filters specs. Zero-valued fields match everything.
type Query struct {
	Scope       string // exact scope, e.g. "iface:kmalloc"
	Iface       string // interface name (matches scope "iface:NAME")
	API         string // API name (matches scope "api:NAME")
	Origin      string // origin class: P-, P+, PΨ, PΩ
	OriginPatch string // originating patch identifier
	Forbidden   *bool  // quantifier shape: true = ∄ (forbidden), false = ∀ (required)
}

// ParseQuery parses the CLI/HTTP query syntax: comma-separated
// field=value pairs with fields scope, iface, api, origin, patch,
// forbidden (true/false).
func ParseQuery(s string) (Query, error) {
	var q Query
	if strings.TrimSpace(s) == "" {
		return q, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		field, value, ok := strings.Cut(part, "=")
		if !ok {
			return q, fmt.Errorf("query term %q is not field=value", part)
		}
		field = strings.TrimSpace(field)
		value = strings.TrimSpace(value)
		switch field {
		case "scope":
			q.Scope = value
		case "iface":
			q.Iface = value
		case "api":
			q.API = value
		case "origin":
			q.Origin = value
		case "patch":
			q.OriginPatch = value
		case "forbidden":
			switch value {
			case "true":
				t := true
				q.Forbidden = &t
			case "false":
				f := false
				q.Forbidden = &f
			default:
				return q, fmt.Errorf("forbidden must be true or false, got %q", value)
			}
		default:
			return q, fmt.Errorf("unknown query field %q (want scope, iface, api, origin, patch, forbidden)", field)
		}
	}
	return q, nil
}

// Match reports whether one spec satisfies every set filter.
func (q Query) Match(sp *spec.Spec) bool {
	if q.Scope != "" && sp.Scope() != q.Scope {
		return false
	}
	if q.Iface != "" && sp.Iface != q.Iface {
		return false
	}
	if q.API != "" && sp.API != q.API {
		return false
	}
	if q.Origin != "" && string(sp.Origin) != q.Origin {
		return false
	}
	if q.OriginPatch != "" && sp.OriginPatch != q.OriginPatch {
		return false
	}
	if q.Forbidden != nil && sp.Constraint.Forbidden != *q.Forbidden {
		return false
	}
	return true
}

// Query returns the matching specs in ordinal order, using a prefix
// scan when the filter pins a scope and a full scan otherwise.
func (sn *Snapshot) Query(q Query) ([]*spec.Spec, error) {
	scope := q.Scope
	if scope == "" && q.Iface != "" {
		scope = "iface:" + q.Iface
	}
	if scope == "" && q.API != "" {
		scope = "api:" + q.API
	}
	var out []ordSpec
	collect := func(ord uint64, sp *spec.Spec) error {
		if q.Match(sp) {
			out = append(out, ordSpec{ord, sp})
		}
		return nil
	}
	if scope != "" {
		if err := sn.scopeScan(scope, collect); err != nil {
			return nil, err
		}
	} else {
		err := sn.Iterate(func(_, val []byte) (bool, error) {
			ord, sp, err := decodeSpec(val)
			if err != nil {
				return false, err
			}
			return true, collect(ord, sp)
		})
		if err != nil {
			return nil, err
		}
	}
	return sortByOrd(out), nil
}
