package solver

import (
	"errors"
	"fmt"
	"testing"
)

func x(n string) Term      { return Sym{Name: n} }
func c(v int64) Term       { return Const{Val: v} }
func lt(a, b Term) Formula { return Atom{Op: OpLt, A: a, B: b} }
func gt(a, b Term) Formula { return Atom{Op: OpGt, A: a, B: b} }

func TestSatMemoHitsOnRepeat(t *testing.T) {
	f := MkAnd(lt(x("memo_a"), c(3)), gt(x("memo_a"), c(10)))
	var tl Tally
	if tl.Sat(f) {
		t.Fatal("a<3 && a>10 should be unsat")
	}
	if tl.Sat(f) {
		t.Fatal("verdict changed on repeat")
	}
	// memo_a is unique to this test: the first check misses, the repeat hits.
	if tl != (Tally{Checks: 2, MemoHits: 1, MemoMisses: 1}) {
		t.Fatalf("tally %+v, want 2 checks: one miss, then one hit", tl)
	}
}

func TestSatMemoCanonicalKeyOrderInsensitive(t *testing.T) {
	a := lt(x("memo_p"), c(0))
	b := gt(x("memo_q"), c(5))
	if canonKey(And{Fs: []Formula{a, b}}) != canonKey(And{Fs: []Formula{b, a}}) {
		t.Fatal("conjunct order leaked into the canonical key")
	}
	if canonKey(Or{Fs: []Formula{a, b}}) != canonKey(Or{Fs: []Formula{b, a}}) {
		t.Fatal("disjunct order leaked into the canonical key")
	}
	if canonKey(a) == canonKey(b) {
		t.Fatal("distinct atoms collide")
	}
	// The verdict must be shared across the orderings: first check misses,
	// reordered check hits.
	f1 := And{Fs: []Formula{lt(x("memo_r"), c(1)), gt(x("memo_s"), c(2))}}
	f2 := And{Fs: []Formula{gt(x("memo_s"), c(2)), lt(x("memo_r"), c(1))}}
	var first, tl Tally
	first.Sat(f1)
	if first != (Tally{Checks: 1, MemoMisses: 1}) {
		t.Fatalf("first ordering should miss the memo (tally %+v)", first)
	}
	tl.Sat(f2)
	if tl != (Tally{Checks: 1, MemoHits: 1}) {
		t.Fatalf("reordered conjunction should hit the memo (tally %+v)", tl)
	}
}

func TestSatMemoAgreesWithRaw(t *testing.T) {
	// A spread of formulas through the memoized and raw paths must agree,
	// including after generational rotation.
	var fs []Formula
	for i := 0; i < 50; i++ {
		fs = append(fs,
			MkAnd(lt(x(fmt.Sprintf("v%d", i)), c(int64(i))), gt(x(fmt.Sprintf("v%d", i)), c(int64(i-5)))),
			MkOr(lt(x("w"), c(int64(i))), gt(x("w"), c(int64(i)))),
			MkNot(lt(x(fmt.Sprintf("u%d", i)), c(0))),
		)
	}
	for _, f := range fs {
		if got, want := Sat(f), satRaw(f); got != want {
			t.Fatalf("memoized Sat(%s)=%v, raw=%v", String(f), got, want)
		}
		// Second pass through the (possibly warm) memo.
		if got, want := Sat(f), satRaw(f); got != want {
			t.Fatalf("warm Sat(%s)=%v, raw=%v", String(f), got, want)
		}
	}
}

// TestSatBudgetHitChargesLikeMiss: a budgeted check served by a warm memo
// charges its step sink exactly what the computation charged, so budgets
// cannot tell a hit from a miss; a charge the budget refuses makes the hit
// answer the conservative true, as the computation would have.
func TestSatBudgetHitChargesLikeMiss(t *testing.T) {
	f := MkOr(
		MkAnd(lt(x("memo_budget"), c(0)), gt(x("memo_budget"), c(9))),
		MkAnd(lt(x("memo_budget"), c(-3)), gt(x("memo_budget"), c(3))),
	)
	record := func(charges *[]int64) func(int64) error {
		return func(n int64) error { *charges = append(*charges, n); return nil }
	}
	var miss, hit []int64
	var tl Tally
	if tl.SatBudget(f, record(&miss)) {
		t.Fatal("budgeted miss verdict wrong")
	}
	if tl.SatBudget(f, record(&hit)) {
		t.Fatal("budgeted hit verdict wrong")
	}
	if tl != (Tally{Checks: 2, MemoHits: 1, MemoMisses: 1}) {
		t.Fatalf("tally %+v, want one miss then one hit", tl)
	}
	if len(miss) != 2 || fmt.Sprint(hit) != fmt.Sprint(miss) {
		t.Fatalf("hit charged %v, miss charged %v; want the same two conjunct charges", hit, miss)
	}
	refused := errors.New("budget exhausted")
	calls := 0
	if !tl.SatBudget(f, func(int64) error {
		if calls++; calls == 2 {
			return refused
		}
		return nil
	}) {
		t.Fatal("hit whose replayed charge failed must answer the conservative true")
	}
	if calls != 2 {
		t.Fatalf("hit made %d charges after the refused one, want it to stop there", calls-2)
	}
}

// TestTallyCountsEveryCheck pins the accounting the run figures rely on:
// Unsat and Implies make one check, Equiv one or two (it short-circuits),
// and a nil tally counts nothing.
func TestTallyCountsEveryCheck(t *testing.T) {
	a, b := lt(x("tally_a"), c(3)), lt(x("tally_a"), c(5))
	var tl Tally
	tl.Unsat(a)
	tl.Implies(a, b)
	if tl.Checks != 2 {
		t.Fatalf("Unsat+Implies = %d checks, want 2", tl.Checks)
	}
	tl = Tally{}
	tl.Equiv(b, a) // b does not imply a: short-circuits after one check
	if tl.Checks != 1 {
		t.Fatalf("short-circuited Equiv = %d checks, want 1", tl.Checks)
	}
	tl = Tally{}
	tl.Equiv(a, a)
	if tl.Checks != 2 || tl.MemoHits+tl.MemoMisses != 2 {
		t.Fatalf("full Equiv tally %+v, want 2 checks", tl)
	}
	var nilTally *Tally
	if nilTally.Sat(a) != Sat(a) {
		t.Fatal("nil tally changed the verdict")
	}
}

func TestSatMemoGenerationalRotation(t *testing.T) {
	m := &satMemo{cur: make(map[uint64][]memoEntry), cap: 4}
	for i := uint64(0); i < 10; i++ {
		m.put(i, memoEntry{f: TrueF{}, sat: i%2 == 0})
	}
	if len(m.cur) > m.cap {
		t.Fatalf("current generation exceeded cap: %d > %d", len(m.cur), m.cap)
	}
	// A key from the previous generation is still served and promoted.
	if e, ok := m.get(5, TrueF{}, equal); !ok || e.sat != false {
		t.Fatalf("previous-generation key lost: ok=%v v=%v", ok, e.sat)
	}
	if _, ok := m.cur[5]; !ok {
		t.Fatal("hit did not promote into the current generation")
	}
}
