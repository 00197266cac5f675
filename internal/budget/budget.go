// Package budget provides the fault-isolation and resource-metering layer
// of the pipeline: per-unit-of-work budgets (wall-clock deadline, analysis
// steps, approximate memory, path/depth caps), panic containment that
// converts a crashing unit into a structured FailureRecord, and the
// Degradation records that mark results cut short by a budget instead of
// silently truncating them.
//
// A "unit of work" is one patch during inference or one region group
// during detection. The contract the rest of the pipeline builds on: one
// pathological unit degrades or quarantines that one unit — never the run.
package budget

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Limits configures the per-unit resource budget. The zero value means
// "unlimited": no deadline, no step/memory caps, library-default path and
// depth caps.
type Limits struct {
	// UnitTimeout is the wall-clock deadline of one unit of work (one
	// patch in inference, one region group in detection). 0 = none.
	UnitTimeout time.Duration
	// MaxSteps caps analysis steps: slicer node expansions, PDG subgraph
	// builds, and solver conjunct scans all charge against it. 0 = none.
	MaxSteps int64
	// MaxMemBytes caps the approximate bytes a unit may retain for path
	// storage (and is what allocation-spike fault injection charges
	// against). 0 = none.
	MaxMemBytes int64
	// MaxPaths caps value-flow paths per slicing criterion (0 = the
	// slicer's default).
	MaxPaths int
	// MaxDepth caps slicing depth per direction (0 = the slicer's
	// default).
	MaxDepth int
	// Retry re-runs a quarantined unit once with a halved budget: a
	// deterministic crash fails again quickly and cheaply, while a
	// load-induced failure (allocation spike, scheduling stall) may
	// succeed within the tighter envelope.
	Retry bool
	// MaxFailures aborts the whole run once more than this many units
	// have been quarantined (0 = keep going regardless).
	MaxFailures int
}

// Halved returns the limits with deadline and quantitative caps halved
// (floored at 1 where a zero would mean "unlimited").
func (l Limits) Halved() Limits {
	h := l
	if h.UnitTimeout > 0 {
		h.UnitTimeout /= 2
	}
	if h.MaxSteps > 0 {
		h.MaxSteps = max64(1, h.MaxSteps/2)
	}
	if h.MaxMemBytes > 0 {
		h.MaxMemBytes = max64(1, h.MaxMemBytes/2)
	}
	if h.MaxPaths > 1 {
		h.MaxPaths /= 2
	}
	if h.MaxDepth > 1 {
		h.MaxDepth /= 2
	}
	return h
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Reason classifies why a unit was degraded or quarantined.
type Reason string

// Reasons.
const (
	// ReasonPanic: the unit panicked and was quarantined.
	ReasonPanic Reason = "panic"
	// ReasonDeadline: the unit's wall-clock deadline expired.
	ReasonDeadline Reason = "deadline"
	// ReasonCanceled: the surrounding run was canceled.
	ReasonCanceled Reason = "canceled"
	// ReasonSteps: the analysis-step budget ran out.
	ReasonSteps Reason = "step-budget"
	// ReasonMemory: the approximate memory budget ran out.
	ReasonMemory Reason = "memory-budget"
	// ReasonPaths: the per-criterion path cap truncated enumeration.
	ReasonPaths Reason = "path-cap"
	// ReasonDepth: the slicing depth cap truncated enumeration.
	ReasonDepth Reason = "depth-cap"
	// ReasonError: the unit failed with an ordinary error (e.g. a
	// malformed patch).
	ReasonError Reason = "error"
	// ReasonShardLost: the unit's shard worker crashed, hung past its
	// dispatch deadline, or became unreachable; the coordinator
	// quarantined every region group assigned to that shard.
	ReasonShardLost Reason = "shard-lost"
)

// ErrExhausted reports a tripped budget dimension.
type ErrExhausted struct {
	Reason Reason
	Spent  int64
	Limit  int64
}

// Error implements error.
func (e *ErrExhausted) Error() string {
	if e.Limit > 0 {
		return fmt.Sprintf("budget exhausted: %s (%d of %d)", e.Reason, e.Spent, e.Limit)
	}
	return fmt.Sprintf("budget exhausted: %s", e.Reason)
}

// deadlineCheckInterval amortizes context polling: the deadline is checked
// once per this many steps, keeping Step to one atomic add on the fast
// path.
const deadlineCheckInterval = 256

// Budget meters one unit of work. All methods are safe for concurrent use
// and nil-receiver-safe: a nil *Budget is the unlimited budget, so hot
// loops can guard with a single pointer check.
type Budget struct {
	ctx    context.Context
	cancel context.CancelFunc
	limits Limits

	steps atomic.Int64
	mem   atomic.Int64
	// exhausted latches the first budget trip (first reason wins).
	exhausted atomic.Pointer[ErrExhausted]
}

// New creates a budget for one unit of work, deriving a deadline context
// from parent when limits configure one. Callers must Close it.
func New(parent context.Context, l Limits) *Budget {
	if parent == nil {
		parent = context.Background()
	}
	b := &Budget{limits: l}
	if l.UnitTimeout > 0 {
		b.ctx, b.cancel = context.WithTimeout(parent, l.UnitTimeout)
	} else {
		b.ctx, b.cancel = context.WithCancel(parent)
	}
	return b
}

// Close releases the budget's deadline timer.
func (b *Budget) Close() {
	if b != nil && b.cancel != nil {
		b.cancel()
	}
}

// Context returns the unit's deadline context (context.Background for the
// nil budget).
func (b *Budget) Context() context.Context {
	if b == nil {
		return context.Background()
	}
	return b.ctx
}

// Limits returns the configured limits (zero for the nil budget).
func (b *Budget) Limits() Limits {
	if b == nil {
		return Limits{}
	}
	return b.limits
}

// Step charges n analysis steps and reports the first exhaustion (step
// budget overrun, deadline expiry, or cancellation). Once exhausted it
// keeps returning the same error, so traversals bail out quickly.
func (b *Budget) Step(n int64) error {
	if b == nil {
		return nil
	}
	if e := b.exhausted.Load(); e != nil {
		return e
	}
	total := b.steps.Add(n)
	if b.limits.MaxSteps > 0 && total > b.limits.MaxSteps {
		return b.trip(&ErrExhausted{Reason: ReasonSteps, Spent: total, Limit: b.limits.MaxSteps})
	}
	if total%deadlineCheckInterval < n {
		return b.checkCtx()
	}
	return nil
}

// Grow charges approximately n bytes against the memory budget.
func (b *Budget) Grow(n int64) error {
	if b == nil {
		return nil
	}
	if e := b.exhausted.Load(); e != nil {
		return e
	}
	total := b.mem.Add(n)
	if b.limits.MaxMemBytes > 0 && total > b.limits.MaxMemBytes {
		return b.trip(&ErrExhausted{Reason: ReasonMemory, Spent: total, Limit: b.limits.MaxMemBytes})
	}
	return nil
}

// checkCtx converts a done context into a latched exhaustion.
func (b *Budget) checkCtx() error {
	switch b.ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return b.trip(&ErrExhausted{Reason: ReasonDeadline})
	default:
		return b.trip(&ErrExhausted{Reason: ReasonCanceled})
	}
}

// trip latches the first exhaustion and returns the winning record.
func (b *Budget) trip(e *ErrExhausted) *ErrExhausted {
	if b.exhausted.CompareAndSwap(nil, e) {
		return e
	}
	return b.exhausted.Load()
}

// Err returns the latched exhaustion, checking the deadline first so
// callers between work items notice expiry even without stepping.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if e := b.exhausted.Load(); e != nil {
		return e
	}
	if err := b.checkCtx(); err != nil {
		return err
	}
	return nil
}

// Exhausted returns the latched exhaustion record (nil when within
// budget). Unlike Err it does not poll the deadline.
func (b *Budget) Exhausted() *ErrExhausted {
	if b == nil {
		return nil
	}
	return b.exhausted.Load()
}

// Spend is a point-in-time snapshot of a budget's consumption, used to
// attribute resource deltas to observability spans and run manifests.
type Spend struct {
	Steps    int64 `json:"steps"`
	MemBytes int64 `json:"mem_bytes,omitempty"`
}

// Spend snapshots the budget's current consumption (zero for the nil
// budget).
func (b *Budget) Spend() Spend {
	return Spend{Steps: b.StepsSpent(), MemBytes: b.MemSpent()}
}

// StepsSpent returns the steps charged so far.
func (b *Budget) StepsSpent() int64 {
	if b == nil {
		return 0
	}
	return b.steps.Load()
}

// MemSpent returns the approximate bytes charged so far.
func (b *Budget) MemSpent() int64 {
	if b == nil {
		return 0
	}
	return b.mem.Load()
}

// FailureRecord is the structured quarantine record of one failed unit of
// work: what crashed, where, and how much budget it had consumed.
type FailureRecord struct {
	// Unit identifies the quarantined unit (a patch ID, or a detection
	// region scope such as "iface:vb2_ops.buf_prepare").
	Unit string `json:"unit"`
	// Stage is the pipeline stage ("infer" or "detect").
	Stage string `json:"stage"`
	// Reason classifies the failure (panic, deadline, error, …).
	Reason Reason `json:"reason"`
	// Detail carries the panic value or error text.
	Detail string `json:"detail,omitempty"`
	// Stack is the goroutine stack at the panic site.
	Stack string `json:"stack,omitempty"`
	// StepsSpent / MemSpent are the budget consumed before failing.
	StepsSpent int64 `json:"steps_spent"`
	MemSpent   int64 `json:"mem_spent,omitempty"`
	// Attempts counts how many times the unit was tried (2 after a
	// halved-budget retry also failed).
	Attempts int `json:"attempts"`
}

// String renders a one-line summary.
func (f *FailureRecord) String() string {
	return fmt.Sprintf("%s unit %q quarantined: %s (%s; %d steps, attempt %d)",
		f.Stage, f.Unit, f.Reason, f.Detail, f.StepsSpent, f.Attempts)
}

// Degradation marks a unit whose results were produced but cut short by a
// budget: downstream consumers can tell "nothing there" from "ran out".
type Degradation struct {
	Unit   string `json:"unit"`
	Stage  string `json:"stage"`
	Reason Reason `json:"reason"`
	Detail string `json:"detail,omitempty"`
}

// String renders a one-line summary.
func (d Degradation) String() string {
	return fmt.Sprintf("%s unit %q degraded: %s (%s)", d.Stage, d.Unit, d.Reason, d.Detail)
}

// Protect runs one unit of work under panic containment. A panic is
// converted into a FailureRecord (with the budget spent and the stack);
// an error return is converted likewise, classifying budget and deadline
// errors by reason. A nil return means the unit completed — though it may
// still be Degraded if the budget's Exhausted record is set.
func Protect(stage, unit string, b *Budget, fn func() error) (fr *FailureRecord) {
	defer func() {
		if r := recover(); r != nil {
			fr = &FailureRecord{
				Unit:       unit,
				Stage:      stage,
				Reason:     ReasonPanic,
				Detail:     fmt.Sprint(r),
				Stack:      string(debug.Stack()),
				StepsSpent: b.StepsSpent(),
				MemSpent:   b.MemSpent(),
				Attempts:   1,
			}
		}
	}()
	if err := fn(); err != nil {
		return &FailureRecord{
			Unit:       unit,
			Stage:      stage,
			Reason:     ClassifyErr(err),
			Detail:     err.Error(),
			StepsSpent: b.StepsSpent(),
			MemSpent:   b.MemSpent(),
			Attempts:   1,
		}
	}
	return nil
}

// ClassifyErr maps an error to a failure reason: budget exhaustions keep
// their dimension, context errors map to deadline/cancellation, anything
// else is an ordinary error.
func ClassifyErr(err error) Reason {
	var ex *ErrExhausted
	if errors.As(err, &ex) {
		return ex.Reason
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ReasonDeadline
	}
	if errors.Is(err, context.Canceled) {
		return ReasonCanceled
	}
	return ReasonError
}
