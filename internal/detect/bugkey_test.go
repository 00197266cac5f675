package detect

import "testing"

// TestBugsRenderedAtCreation: every reported bug carries the key and
// constraint rendered when it was built, since Key and Record read only
// those.
func TestBugsRenderedAtCreation(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	bugs := New(prog).Detect(specs)
	if len(bugs) == 0 {
		t.Fatal("no reports: nothing compared")
	}
	for _, b := range bugs {
		if b.key == "" || b.constraint == "" {
			t.Fatalf("%v: key or constraint not rendered at creation", b)
		}
	}
}
