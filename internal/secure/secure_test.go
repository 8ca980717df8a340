package secure

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestSchemeNamesRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme should reject unknown names")
	}
	if Scheme(99).Valid() {
		t.Error("out-of-range scheme should be invalid")
	}
}

func TestSchemeFlags(t *testing.T) {
	want := map[Scheme]Caps{
		Unsafe:     {},
		NDAP:       {DelaysPropagation: true},
		STT:        {TracksTaint: true},
		DoM:        {DelaysOnMiss: true},
		NDAS:       {DelaysPropagation: true, PropagatesAtHead: true},
		STTSpectre: {TracksTaint: true, ControlOnlyTaint: true},
		Cleanup:    {UndoesSpeculation: true},
	}
	for _, s := range AllSchemes() {
		if got := s.Caps(); got != want[s] {
			t.Errorf("%v caps = %+v, want %+v", s, got, want[s])
		}
	}
	if (Scheme(99).Caps() != Caps{}) {
		t.Error("an invalid scheme must have no capabilities")
	}
}

func TestShadowTrackerBasics(t *testing.T) {
	var tr ShadowTracker
	if tr.Speculative(100) {
		t.Error("empty tracker: nothing is speculative")
	}
	tr.Add(10)
	tr.Add(20)
	tr.Add(30)
	if tr.Speculative(10) {
		t.Error("an instruction is not shadowed by itself")
	}
	if !tr.Speculative(11) || !tr.Speculative(31) {
		t.Error("younger instructions must be speculative")
	}
	if f, ok := tr.Frontier(); !ok || f != 10 {
		t.Errorf("frontier = %d/%v, want 10", f, ok)
	}
	// Out-of-order resolution from the middle.
	if !tr.Resolve(20) {
		t.Error("resolve of present shadow should succeed")
	}
	if tr.Resolve(20) {
		t.Error("double resolve should report false")
	}
	if !tr.Speculative(15) {
		t.Error("seq 15 still shadowed by 10")
	}
	tr.Resolve(10)
	if tr.Speculative(25) {
		t.Error("seq 25 no longer shadowed (only 30 outstanding)")
	}
	if !tr.Speculative(31) {
		t.Error("seq 31 still shadowed by 30")
	}
}

func TestShadowTrackerSquash(t *testing.T) {
	var tr ShadowTracker
	for _, s := range []uint64{5, 10, 15, 20} {
		tr.Add(s)
	}
	tr.SquashAfter(12)
	if tr.Outstanding() != 2 {
		t.Errorf("outstanding = %d, want 2", tr.Outstanding())
	}
	if tr.Speculative(13) != true {
		t.Error("seq 13 still shadowed by 5 and 10")
	}
	tr.SquashAfter(0)
	if tr.Outstanding() != 0 {
		t.Error("SquashAfter(0) should clear everything")
	}
}

func TestShadowTrackerOutOfOrderAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add should panic")
		}
	}()
	var tr ShadowTracker
	tr.Add(10)
	tr.Add(5)
}

// Property: the tracker agrees with a naive map-based oracle under random
// operation sequences.
func TestShadowTrackerAgainstOracle(t *testing.T) {
	type op struct {
		Kind    uint8
		Operand uint16
	}
	f := func(ops []op) bool {
		var tr ShadowTracker
		oracle := map[uint64]bool{}
		next := uint64(1)
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0: // add a new youngest shadow
				tr.Add(next)
				oracle[next] = true
				next += uint64(o.Operand%7) + 1
			case 1: // resolve a random existing shadow
				keys := make([]uint64, 0, len(oracle))
				for k := range oracle {
					keys = append(keys, k)
				}
				if len(keys) == 0 {
					continue
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				k := keys[int(o.Operand)%len(keys)]
				tr.Resolve(k)
				delete(oracle, k)
			case 2: // squash after some sequence
				cut := uint64(o.Operand)
				tr.SquashAfter(cut)
				for k := range oracle {
					if k > cut {
						delete(oracle, k)
					}
				}
			}
			// Compare speculative-ness for a few probes.
			for _, probe := range []uint64{1, next / 2, next} {
				want := false
				for k := range oracle {
					if k < probe {
						want = true
						break
					}
				}
				if tr.Speculative(probe) != want {
					return false
				}
			}
			if tr.Outstanding() != len(oracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaintTrackerBasics(t *testing.T) {
	var sh ShadowTracker
	tt := NewTaintTracker(8, &sh)
	sh.Add(5) // unresolved branch at seq 5

	tt.SetRoot(1, 10) // register 1 written by speculative load 10
	if !tt.Tainted(1) {
		t.Error("register with speculative root must be tainted")
	}
	// Propagation through an ALU op.
	tt.SetCombined(2, 1)
	if !tt.Tainted(2) {
		t.Error("taint must propagate through Combine")
	}
	if tt.Root(2) != 10 {
		t.Errorf("combined root = %d, want 10", tt.Root(2))
	}
	// Untainting is implicit: resolve the shadow and taint disappears.
	sh.Resolve(5)
	if tt.Tainted(1) || tt.Tainted(2) {
		t.Error("registers must untaint when the root load becomes non-speculative")
	}
}

func TestTaintCombineTakesYoungest(t *testing.T) {
	var sh ShadowTracker
	tt := NewTaintTracker(8, &sh)
	sh.Add(1)
	tt.SetRoot(1, 10)
	tt.SetRoot(2, 20)
	if got := tt.Combine(1, 2); got != 20 {
		t.Errorf("Combine = %d, want youngest root 20", got)
	}
	if !tt.TaintedAny(1, 3) {
		t.Error("TaintedAny should see register 1")
	}
	tt.Clear(1)
	tt.Clear(2)
	if tt.TaintedAny(1, 2) {
		t.Error("cleared registers must be untainted")
	}
}

// Property: speculative-ness is monotonic in sequence number — if a younger
// root is non-speculative, every older root is too. This is what makes
// max-combining taint roots sound.
func TestSpeculativeMonotonicity(t *testing.T) {
	f := func(shadows []uint16, a, b uint16) bool {
		var tr ShadowTracker
		last := uint64(0)
		for _, s := range shadows {
			last += uint64(s%100) + 1
			tr.Add(last)
		}
		lo, hi := uint64(a), uint64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		// If the older is speculative, the younger must be as well.
		return !tr.Speculative(lo) || tr.Speculative(hi) || lo == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaintTrackerReset(t *testing.T) {
	var sh ShadowTracker
	tt := NewTaintTracker(4, &sh)
	sh.Add(1)
	tt.SetRoot(0, 5)
	tt.SetRoot(3, 9)
	tt.Reset()
	for r := 0; r < 4; r++ {
		if tt.Root(r) != 0 {
			t.Errorf("register %d still rooted after Reset", r)
		}
	}
}
