package secure

import (
	"fmt"
	"testing"
)

// TestRegistryDerivedLists pins every scheme list derived from the
// registry, element for element and in order, so a new row cannot silently
// reorder or grow a list a figure, sweep or golden depends on.
func TestRegistryDerivedLists(t *testing.T) {
	cases := []struct {
		name string
		got  []Scheme
		want string
	}{
		{"Schemes", Schemes(), "[unsafe nda-p stt dom]"},
		{"FigureSchemes", FigureSchemes(), "[unsafe nda-p stt dom cleanup]"},
		{"AllSchemes", AllSchemes(), "[unsafe nda-p stt dom nda-s stt-spectre cleanup]"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(Names(c.got)); got != c.want {
			t.Errorf("%s() = %s, want %s", c.name, got, c.want)
		}
	}
	want := "[nda-free-prop stt-no-taint dom-issue-miss spec-train cleanup-no-lru-undo cleanup-drop-evicted]"
	if got := fmt.Sprint(Mutations()); got != want {
		t.Errorf("Mutations() = %s, want %s", got, want)
	}
}

// TestMutationTargets pins each planted mutation's target and checks the
// registry agrees with itself: the target scheme's row lists the mutation.
func TestMutationTargets(t *testing.T) {
	want := map[Mutation]string{
		MutNDAFreeProp:        "nda-p",
		MutSTTNoTaint:         "stt",
		MutDoMIssueMiss:       "dom",
		MutSpecTrain:          "dom+ap",
		MutCleanupNoLRUUndo:   "cleanup",
		MutCleanupDropEvicted: "cleanup",
	}
	for _, m := range Mutations() {
		s, needAP := m.Target()
		got := s.String()
		if needAP {
			got += "+ap"
		}
		if got != want[m] {
			t.Errorf("%v.Target() = %s, want %s", m, got, want[m])
		}
		listed := false
		for _, p := range registry[s].mutations {
			listed = listed || (p.mutation == m && p.needAP == needAP)
		}
		if !listed {
			t.Errorf("%v targets %v, whose registry row does not plant it", m, s)
		}
	}
	if s, needAP := MutNone.Target(); s != Unsafe || needAP {
		t.Errorf("MutNone.Target() = %v, %v; want unsafe, false", s, needAP)
	}
}

// TestRegistryRowsWellFormed checks the invariants every row must keep:
// a unique non-empty name that round-trips, paper schemes inside the
// figures matrix, and each mutation planted into at most one scheme.
func TestRegistryRowsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	planted := map[Mutation]Scheme{}
	for i, r := range registry {
		s := Scheme(i)
		if r.name == "" || seen[r.name] {
			t.Errorf("scheme %d: empty or duplicate name %q", i, r.name)
		}
		seen[r.name] = true
		if got, err := ParseScheme(r.name); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", r.name, got, err)
		}
		if r.paper && !r.figures {
			t.Errorf("%v: a paper scheme must be in the figures matrix", s)
		}
		for _, p := range r.mutations {
			if prev, dup := planted[p.mutation]; dup {
				t.Errorf("%v planted into both %v and %v", p.mutation, prev, s)
			}
			planted[p.mutation] = s
			if p.mutation == MutNone || !p.mutation.Valid() {
				t.Errorf("%v plants invalid mutation %v", s, p.mutation)
			}
		}
	}
	if len(planted) != int(numMutations)-1 {
		t.Errorf("%d mutations planted, want every mutation but MutNone (%d)", len(planted), numMutations-1)
	}
}
