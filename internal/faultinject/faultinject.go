// Package faultinject is a deterministic, seed-driven fault-injection
// harness for exercising the pipeline's fault-isolation layer. Tests
// install a Plan naming the units of work that must misbehave — panic,
// stall until the unit's deadline, or spike their allocation accounting —
// and the pipeline's unit wrappers call Fire at the start of every unit.
//
// The hook is test-only in spirit: with no plan installed (the default),
// Fire is a single atomic load returning nil, so production runs pay
// nothing. The Plan records every fault it actually fired, which is what
// lets the difftest configuration assert "exactly N injected faults yield
// exactly N quarantined units".
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is an injected fault behavior.
type Kind int

// Fault kinds.
const (
	// KindPanic panics inside the unit (must be contained and
	// quarantined).
	KindPanic Kind = iota + 1
	// KindStall blocks until the unit's deadline context is done (a
	// hang; must be cut off by the per-unit deadline and quarantined).
	KindStall
	// KindAllocSpike charges a large allocation against the unit's
	// memory budget (must trip the budget, never the process).
	KindAllocSpike
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	case KindAllocSpike:
		return "alloc-spike"
	}
	return "?"
}

// allocSpikeBytes is the charge of one injected allocation spike — large
// enough to trip any sane memory budget.
const allocSpikeBytes = 1 << 30

// defaultStallCap bounds a stall when the unit has no deadline, so a
// misconfigured test degrades into a slow test instead of a hung one.
const defaultStallCap = 2 * time.Second

// Record is one fault that actually fired.
type Record struct {
	Stage string
	Unit  string
	Kind  Kind
}

// Plan maps (stage, unit) pairs to the fault each must suffer.
type Plan struct {
	mu       sync.Mutex
	faults   map[string]Kind
	once     map[string]bool   // faults removed after their first firing
	fired    map[string]Record // keyed like faults: each unit recorded once
	StallCap time.Duration     // cap for KindStall without a deadline

	// stalls / peakStalls count the stalls in flight now and at most —
	// the witness that stalled units ran concurrently.
	stalls, peakStalls int
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{
		faults:   make(map[string]Kind),
		once:     make(map[string]bool),
		fired:    make(map[string]Record),
		StallCap: defaultStallCap,
	}
}

func key(stage, unit string) string { return stage + "\x00" + unit }

// Add schedules a fault for one unit of work. The fault fires on every
// attempt (a quarantined unit retried with a halved budget fails again).
func (p *Plan) Add(stage, unit string, k Kind) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults[key(stage, unit)] = k
	return p
}

// AddOnce schedules a transient fault: it fires on the unit's first attempt
// only, modeling load-induced failures a halved-budget retry can survive.
func (p *Plan) AddOnce(stage, unit string, k Kind) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults[key(stage, unit)] = k
	p.once[key(stage, unit)] = true
	return p
}

// Fired returns the faults that actually fired, sorted by stage then unit.
// A unit retried with a halved budget fires again but is recorded once.
func (p *Plan) Fired() []Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Record, 0, len(p.fired))
	for _, r := range p.fired {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Unit < out[j].Unit
	})
	return out
}

// PeakStalls returns the most stalls that were ever in flight at once:
// above 1 only if stalled units ran concurrently.
func (p *Plan) PeakStalls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peakStalls
}

// stalling moves the in-flight stall count by delta (+1 entering a stall,
// -1 leaving it).
func (p *Plan) stalling(delta int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stalls += delta
	p.peakStalls = max(p.peakStalls, p.stalls)
}

// FiredUnits returns the fired units of one stage as a set.
func (p *Plan) FiredUnits(stage string) map[string]bool {
	out := make(map[string]bool)
	for _, r := range p.Fired() {
		if r.Stage == stage {
			out[r.Unit] = true
		}
	}
	return out
}

// lookup returns the planned fault for a unit (0 = none) and records the
// firing.
func (p *Plan) lookup(stage, unit string) Kind {
	p.mu.Lock()
	defer p.mu.Unlock()
	k, ok := p.faults[key(stage, unit)]
	if !ok {
		return 0
	}
	p.fired[key(stage, unit)] = Record{Stage: stage, Unit: unit, Kind: k}
	if p.once[key(stage, unit)] {
		delete(p.faults, key(stage, unit))
	}
	return k
}

// PlanFromSeed builds a plan deterministically from a seed: the unit
// universe is shuffled with the seeded generator, the first nPanic units
// panic and the next nStall stall. Counts are clamped to the universe.
func PlanFromSeed(seed int64, stage string, units []string, nPanic, nStall int) *Plan {
	shuffled := append([]string(nil), units...)
	sort.Strings(shuffled)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	p := NewPlan()
	for i, u := range shuffled {
		switch {
		case i < nPanic:
			p.Add(stage, u, KindPanic)
		case i < nPanic+nStall:
			p.Add(stage, u, KindStall)
		default:
			return p
		}
	}
	return p
}

// active is the installed plan; nil means fault injection is off.
var active atomic.Pointer[Plan]

// Set installs a plan process-wide. Tests must pair it with Reset.
func Set(p *Plan) { active.Store(p) }

// Reset removes the installed plan.
func Reset() { active.Store(nil) }

// Enabled reports whether a plan is installed.
func Enabled() bool { return active.Load() != nil }

// Grower is the slice of the budget API Fire needs (avoids a package
// cycle in the other direction and keeps Fire usable with a nil budget).
type Grower interface {
	Grow(n int64) error
}

// Fire triggers the planned fault for one unit of work, if any. Called by
// the pipeline's unit wrappers at the start of every unit:
//
//   - no plan / no fault for this unit: returns nil (one atomic load)
//   - KindPanic: panics
//   - KindStall: blocks until ctx is done (or the plan's StallCap) and
//     returns the context error
//   - KindAllocSpike: charges a huge allocation against the budget and
//     returns the resulting budget error
func Fire(ctx context.Context, stage, unit string, b Grower) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	switch p.lookup(stage, unit) {
	case KindPanic:
		panic(fmt.Sprintf("faultinject: injected panic in %s unit %q", stage, unit))
	case KindStall:
		cap := p.StallCap
		if cap <= 0 {
			cap = defaultStallCap
		}
		p.stalling(1)
		defer p.stalling(-1)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(cap):
			return fmt.Errorf("faultinject: stall in %s unit %q outlived its cap (no deadline configured?)", stage, unit)
		}
	case KindAllocSpike:
		if b == nil {
			return fmt.Errorf("faultinject: alloc spike in %s unit %q with no budget to charge", stage, unit)
		}
		if err := b.Grow(allocSpikeBytes); err != nil {
			return err
		}
		return fmt.Errorf("faultinject: alloc spike in %s unit %q was absorbed (no memory budget configured?)", stage, unit)
	}
	return nil
}
