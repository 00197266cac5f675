// Package serve implements the resident analysis service behind
// `seal serve`: an HTTP/JSON daemon that loads a corpus and spec database
// once, keeps the shared detection substrate hot, and answers infer /
// detect / edit requests at interactive latency.
//
// Concurrency model: snapshot isolation. All analysis state lives in
// immutable, epoch-tagged Snapshots; readers pin the current snapshot with
// one atomic load and never observe a mutation, while a single writer
// builds the successor off to the side and publishes it atomically. An
// in-flight detection therefore always reports against exactly one epoch,
// even while edits land.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"seal"
	"seal/internal/cir"
	"seal/internal/ir"
)

// Snapshot is one immutable epoch of the service's analysis state: the
// source tree, its parse trees, the pinned resident substrate, and the
// spec database. Nothing in a published Snapshot is ever mutated; the
// resident substrate only accretes (memoized paths, regions, PDGs), which
// is invisible to result semantics.
type Snapshot struct {
	// Epoch is the publication sequence number, starting at 1.
	Epoch int64
	// Files is the source tree (name -> source).
	Files map[string]string
	// FileHash fingerprints each file individually: a successor snapshot
	// re-parses exactly the files whose hash changed.
	FileHash map[string]string
	// Parsed holds each file's parse tree. Trees are immutable after
	// lowering, so a successor snapshot reuses them for every file whose
	// hash is unchanged and re-parses only the edited ones.
	Parsed map[string]*cir.File
	// Resident is the pinned substrate + group memo for this epoch.
	Resident *seal.Resident
	// Specs is the active spec database; SpecsHash its fingerprint.
	Specs     []*seal.Spec
	SpecsHash string
	// StoreSeq is the spec-store snapshot sequence this epoch's specs were
	// read at (0 when the daemon is not backed by a spec store).
	StoreSeq uint64
	// groups is Specs' region-group plan, built by the epoch's first
	// /detect (see plan), never on the publish path.
	groups *lazyPlan

	// Build accounting (how incremental the build was), surfaced by /edit.
	ReusedFiles int
	ParsedFiles int
}

// TargetHash is the content fingerprint of this snapshot's source tree.
func (s *Snapshot) TargetHash() string { return s.Resident.TargetHash }

type lazyPlan struct {
	once sync.Once
	p    *seal.GroupPlan
}

// plan is the region-group plan of the snapshot's specs, built once, by
// the first caller, and shared by every detection of this epoch.
func (s *Snapshot) plan() *seal.GroupPlan {
	s.groups.once.Do(func() { s.groups.p = seal.PlanGroups(s.Specs) })
	return s.groups.p
}

// hashSource fingerprints one file's bytes.
func hashSource(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// BuildSnapshot parses, links, and pins a source tree as epoch 1. specs
// may be nil (serve with an empty spec DB until /infer publishes one).
func BuildSnapshot(files map[string]string, specs []*seal.Spec) (*Snapshot, error) {
	return buildSnapshot(files, specs, nil)
}

// buildSnapshot builds a snapshot, reusing prev's parse trees for
// unchanged files. The successor's substrate starts cold and is rebuilt
// lazily by the requests that need it.
func buildSnapshot(files map[string]string, specs []*seal.Spec, prev *Snapshot) (*Snapshot, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("serve: snapshot needs at least one source file")
	}
	s := &Snapshot{
		Epoch:    1,
		Files:    files,
		FileHash: make(map[string]string, len(files)),
		Parsed:   make(map[string]*cir.File, len(files)),
		Specs:    specs,
		groups:   new(lazyPlan),
	}
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	parsed := make([]*cir.File, 0, len(names))
	for _, n := range names {
		h := hashSource(files[n])
		s.FileHash[n] = h
		if prev != nil && prev.FileHash[n] == h && prev.Parsed[n] != nil {
			s.Parsed[n] = prev.Parsed[n]
			s.ReusedFiles++
		} else {
			f, err := cir.ParseFile(n, files[n])
			if err != nil {
				return nil, err
			}
			s.Parsed[n] = f
			s.ParsedFiles++
		}
		parsed = append(parsed, s.Parsed[n])
	}
	prog, err := ir.NewProgram(parsed...)
	if err != nil {
		return nil, err
	}
	s.Resident = seal.NewResident(&seal.Target{Prog: prog, Files: files})
	if prev != nil {
		s.Epoch = prev.Epoch + 1
		s.StoreSeq = prev.StoreSeq // source edit, specs unchanged
	}
	s.SpecsHash = seal.SpecSetHash(specs)
	return s, nil
}

// withSpecs derives a successor snapshot that shares this one's target,
// parse trees, and resident substrate (nothing source-side changed) but
// activates a different spec database.
func (s *Snapshot) withSpecs(specs []*seal.Spec) *Snapshot {
	next := *s
	next.Epoch = s.Epoch + 1
	next.Specs = specs
	next.SpecsHash = seal.SpecSetHash(specs)
	next.groups = new(lazyPlan)
	next.ReusedFiles, next.ParsedFiles = len(s.Files), 0
	return &next
}

// Store is the snapshot holder: lock-free reads of the current epoch, a
// single mutex serializing writers. Readers that hold a *Snapshot keep
// using it safely after any number of publishes.
type Store struct {
	writer sync.Mutex
	cur    atomic.Pointer[Snapshot]
}

// NewStore publishes the initial snapshot.
func NewStore(s *Snapshot) *Store {
	st := &Store{}
	st.cur.Store(s)
	return st
}

// Current pins the latest published snapshot.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Edit applies file updates and deletions to the current snapshot and
// publishes the successor. On any error (parse failure, empty result) the
// current snapshot stays published and untouched.
func (st *Store) Edit(updates map[string]string, deletes []string) (*Snapshot, error) {
	st.writer.Lock()
	defer st.writer.Unlock()
	prev := st.cur.Load()
	files := make(map[string]string, len(prev.Files)+len(updates))
	for n, src := range prev.Files {
		files[n] = src
	}
	for n, src := range updates {
		files[n] = src
	}
	for _, n := range deletes {
		delete(files, n)
	}
	next, err := buildSnapshot(files, prev.Specs, prev)
	if err != nil {
		return nil, err
	}
	st.cur.Store(next)
	return next, nil
}

// EditSpecs publishes a spec-database successor produced by apply —
// typically a spec-store mutation followed by a snapshot re-read — while
// holding the writer lock, so the store commit and the epoch publication
// are one atomic step from every reader's perspective. apply returns the
// full new spec list (in store ordinal order) and the store sequence it
// was read at; on error nothing is published.
func (st *Store) EditSpecs(apply func() ([]*seal.Spec, uint64, error)) (*Snapshot, error) {
	st.writer.Lock()
	defer st.writer.Unlock()
	specs, seq, err := apply()
	if err != nil {
		return nil, err
	}
	next := st.cur.Load().withSpecs(specs)
	next.StoreSeq = seq
	st.cur.Store(next)
	return next, nil
}

// MergeAndPublish merges an inferred database into the active one
// (deduplicated, the incremental dataset growth of paper §9) and
// publishes the merged set as a new epoch.
func (st *Store) MergeAndPublish(db *seal.SpecDB) *Snapshot {
	st.writer.Lock()
	defer st.writer.Unlock()
	cur := st.cur.Load()
	merged := seal.MergeSpecDBs(&seal.SpecDB{Specs: cur.Specs}, db)
	next := cur.withSpecs(merged.Specs)
	st.cur.Store(next)
	return next
}
