package difftest

// Spec-store differential configuration: the spec store must be an
// invisible substrate swap. A store-backed grouped detection (cold or
// warm) must reproduce the flat-file single-process reference
// byte-for-byte on the whole comparison surface, and a one-spec edit must
// recompute exactly the region group that owns the edited spec — every
// other group replays from the persistent cache.

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"seal"
	"seal/internal/budget"
	"seal/internal/coord"
	"seal/internal/detect"
	"seal/internal/spec"
	"seal/internal/specdb"
)

// groupedRun drives one in-process detection (cached on a view of pc when
// pc is non-nil) and builds its comparison surface.
func groupedRun(ctx context.Context, files map[string]string, specs []*spec.Spec, pc *seal.Cache) (*shardSurface, *detect.Result, seal.GroupedStats, error) {
	specsHash := seal.SpecSetHash(specs)
	rec := seal.NewRecorder()
	rec.StartRun("detect")
	res, gs, runErr := seal.DetectFiles(ctx, files, specs, seal.DetectRunOptions{
		Workers: 1, Obs: rec, Cache: pc.View(),
	})
	if runErr != nil {
		return nil, res, gs, runErr
	}
	surf, err := surfaceOf(rec, res, len(specs), seal.TargetHash(files), specsHash)
	return surf, res, gs, err
}

// RunSpecEditCase is the incremental-recompute differential protocol for
// one corpus, run inside dir (a test temp directory):
//
//  1. Import the flat corpus into a spec store; the store must hand the
//     specs back in flat-file order (equal content hash).
//  2. A cold store-backed grouped run must be byte-identical to the flat
//     single-process reference and compute every group.
//  3. Edit one spec in place (same key, different content) through the
//     store; a flat rerun over the store's new snapshot is the new
//     reference.
//  4. The warm grouped run over the edited corpus must be byte-identical
//     to that reference while recomputing exactly one group: the cache
//     probes record one miss (the edited group) and G-1 warm hits (the
//     sibling groups).
//
// Returns the divergences.
func RunSpecEditCase(seed int64, dir string) ([]Divergence, error) {
	ctx := context.Background()
	files, specs, err := ShardCorpus(seed)
	if err != nil {
		return nil, err
	}
	ref, _, err := singleProcessRef(ctx, files, specs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference: %w", seed, err)
	}

	storePath := filepath.Join(dir, "specs.specdb")
	pc, err := seal.OpenCache(filepath.Join(dir, "cache"), false, 0)
	if err != nil {
		return nil, err
	}
	if _, _, err := seal.ImportSpecStore(storePath, &spec.DB{Specs: specs}); err != nil {
		return nil, fmt.Errorf("seed %d: import: %w", seed, err)
	}
	stored, err := seal.LoadSpecStoreSpecs(storePath)
	if err != nil {
		return nil, fmt.Errorf("seed %d: store load: %w", seed, err)
	}

	var divs []Divergence
	flatHash, storeHash := seal.SpecSetHash(specs), seal.SpecSetHash(stored)
	if storeHash != flatHash {
		divs = append(divs, Divergence{Stage: "specstore", Conf: "round-trip hash",
			Ref: flatHash, Got: storeHash})
		return divs, nil // everything downstream would mis-compare
	}

	surf, _, gs, err := groupedRun(ctx, files, stored, pc)
	if err != nil {
		return nil, fmt.Errorf("seed %d: cold grouped run: %w", seed, err)
	}
	divs = compareSurface(divs, "store cold", ref, surf)
	if gs.Warm != 0 || gs.Computed != gs.Groups {
		divs = append(divs, Divergence{Stage: "specstore", Conf: "cold group stats",
			Ref: fmt.Sprintf("warm=0 computed=%d", gs.Groups),
			Got: fmt.Sprintf("warm=%d computed=%d", gs.Warm, gs.Computed)})
	}

	// The edit: same key (scope + constraint), different content — the
	// group that owns the spec changes fingerprint, nothing else does.
	st, err := specdb.Open(storePath)
	if err != nil {
		return nil, err
	}
	edited := *stored[0]
	edited.OriginPatch = edited.OriginPatch + "-edited"
	created, err := st.UpsertSpec(&edited)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("seed %d: upsert: %w", seed, err)
	}
	if created {
		divs = append(divs, Divergence{Stage: "specstore", Conf: "edit upsert",
			Ref: "replace existing key", Got: "created a new key"})
	}
	newSpecs, err := st.Current().Specs()
	st.Close()
	if err != nil {
		return nil, err
	}

	ref2, _, err := singleProcessRef(ctx, files, newSpecs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: edited reference: %w", seed, err)
	}
	surf2, res2, gs2, err := groupedRun(ctx, files, newSpecs, pc)
	if err != nil {
		return nil, fmt.Errorf("seed %d: warm grouped run: %w", seed, err)
	}
	divs = compareSurface(divs, "store edited", ref2, surf2)
	if gs2.Computed != 1 || gs2.Warm != gs2.Groups-1 {
		divs = append(divs, Divergence{Stage: "specstore", Conf: "edit group stats",
			Ref: fmt.Sprintf("warm=%d computed=1", gs2.Groups-1),
			Got: fmt.Sprintf("warm=%d computed=%d", gs2.Warm, gs2.Computed)})
	}
	if res2.PCache.Misses != 1 || res2.PCache.Hits != int64(gs2.Groups-1) {
		divs = append(divs, Divergence{Stage: "specstore", Conf: "edit cache probes",
			Ref: fmt.Sprintf("hits=%d misses=1", gs2.Groups-1),
			Got: fmt.Sprintf("hits=%d misses=%d", res2.PCache.Hits, res2.PCache.Misses)})
	}
	return divs, nil
}

// RunSpecStoreShardCase is the scale-out half of the spec-store protocol:
// a coordinated run over specs loaded from the store, shipped inline in
// each shard job, must reproduce the flat single-process reference
// byte-for-byte at every shard count. Runs inside dir.
func RunSpecStoreShardCase(seed int64, dir string, shardCounts []int) ([]Divergence, error) {
	ctx := context.Background()
	files, specs, err := ShardCorpus(seed)
	if err != nil {
		return nil, err
	}
	ref, _, err := singleProcessRef(ctx, files, specs)
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference: %w", seed, err)
	}

	storePath := filepath.Join(dir, "specs.specdb")
	if _, _, err := seal.ImportSpecStore(storePath, &spec.DB{Specs: specs}); err != nil {
		return nil, fmt.Errorf("seed %d: import: %w", seed, err)
	}
	stored, err := seal.LoadSpecStoreSpecs(storePath)
	if err != nil {
		return nil, err
	}

	var divs []Divergence
	for _, n := range shardCounts {
		addrs, _, stop, err := StartWorkers(n, files)
		if err != nil {
			return nil, fmt.Errorf("seed %d: workers: %w", seed, err)
		}
		specsHash := seal.SpecSetHash(stored)
		targetHash := seal.TargetHash(files)
		rec := seal.NewRecorder()
		rec.StartRun("detect")
		res, _, runErr := coord.Detect(ctx, targetHash, stored, coord.Options{
			Addrs:   addrs,
			Timeout: 30 * time.Second,
			Workers: 1,
			Limits:  budget.Limits{},
			Obs:     rec,
		})
		if runErr != nil {
			stop()
			return nil, fmt.Errorf("seed %d: shards=%d: %w", seed, n, runErr)
		}
		surf, err := surfaceOf(rec, res, len(stored), targetHash, specsHash)
		stop()
		if err != nil {
			return nil, err
		}
		divs = compareSurface(divs, fmt.Sprintf("store shards=%d", n), ref, surf)
	}
	return divs, nil
}
