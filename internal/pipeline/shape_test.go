package pipeline

import (
	"testing"

	"doppelganger/internal/program"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
)

// streamWithGate builds an independent strided sweep over an L2/L3 region
// with a data-dependent branch per element — the canonical pattern where
// DoM loses MLP and address prediction recovers it.
func streamWithGate(n int) *program.Program {
	b := program.NewBuilder("streamgate")
	const base = 0x100000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i*2654435761 + 12345) % 100)
	}
	b.InitWords(base, vals)
	b.LoadI(1, base)
	b.LoadI(2, base+int64(n)*8)
	b.LoadI(3, 0)
	b.LoadI(4, 97)
	loop := b.Here()
	b.Load(5, 1, 0)
	skip := b.NewLabel()
	b.Blt(5, 4, skip)
	b.Add(3, 3, 5)
	b.Bind(skip)
	b.AddI(1, 1, 8)
	b.Blt(1, 2, loop)
	b.Store(3, 1, 0)
	b.Halt()
	return b.MustBuild()
}

// gatedGatherProgram builds the dependent-gather pattern: an L1-resident
// index stream feeds a missing gather whose address is stride-predictable,
// gated by branches on the gathered values. This is where all three schemes
// lose dependent-load MLP and doppelgangers recover it.
func gatedGatherProgram(iters int) *program.Program {
	b := program.NewBuilder("gatedgather")
	const (
		baseI = 0x100_0000
		baseD = 0x800_0000
	)
	for i := 0; i < iters; i++ {
		b.InitMem(baseI+uint64(i)*8, int64(i)*8)
	}
	const (
		pi, end, idx, t, y, acc, thr = 1, 2, 3, 4, 5, 6, 7
	)
	b.LoadI(pi, baseI)
	b.LoadI(end, baseI+int64(iters)*8)
	b.LoadI(acc, 0)
	b.LoadI(thr, 97)
	loop := b.Here()
	b.Load(idx, pi, 0)
	b.ShlI(t, idx, 3)
	b.AddI(t, t, baseD)
	b.Load(y, t, 0)
	skip := b.NewLabel()
	b.Blt(y, thr, skip)
	b.AddI(acc, acc, 5)
	b.Bind(skip)
	b.AddI(acc, acc, 1)
	b.AddI(pi, pi, 8)
	b.Blt(pi, end, loop)
	b.Store(acc, end, 0)
	b.Halt()
	return b.MustBuild()
}

func cyclesFor(t *testing.T, p *program.Program, scheme secure.Scheme, ap bool) (uint64, *Core) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.AddressPrediction = ap
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0, 500_000_000); err != nil {
		t.Fatal(err)
	}
	ref := program.Run(p, 50_000_000)
	if got := c.ArchState().Checksum(); got != ref.Checksum() {
		t.Fatalf("%v ap=%v: architectural state mismatch", scheme, ap)
	}
	return c.Stats.Cycles, c
}

// TestSchemeShapeGatedStream checks the paper's qualitative ordering on the
// load-gated stream: DoM is the slowest scheme, and address prediction
// recovers a substantial part of its slowdown.
func TestSchemeShapeGatedStream(t *testing.T) {
	p := streamWithGate(20000)
	base, _ := cyclesFor(t, p, secure.Unsafe, false)
	dom, _ := cyclesFor(t, p, secure.DoM, false)
	domAP, _ := cyclesFor(t, p, secure.DoM, true)
	if dom <= base {
		t.Errorf("DoM (%d cycles) not slower than baseline (%d)", dom, base)
	}
	if domAP >= dom {
		t.Errorf("DoM+AP (%d cycles) not faster than DoM (%d)", domAP, dom)
	}
	// AP must recover at least a third of the DoM slowdown here.
	recovered := float64(dom-domAP) / float64(dom-base)
	if recovered < 0.33 {
		t.Errorf("DoM+AP recovered only %.0f%% of the slowdown", recovered*100)
	}
}

// TestSchemeShapeGatedGather checks that NDA-P and STT lose dependent-load
// MLP on the gated gather and that doppelgangers recover most of it, while
// STT stays at least as fast as NDA-P (it permits dependent ILP).
func TestSchemeShapeGatedGather(t *testing.T) {
	p := gatedGatherProgram(12000)
	base, _ := cyclesFor(t, p, secure.Unsafe, false)
	nda, _ := cyclesFor(t, p, secure.NDAP, false)
	ndaAP, c := cyclesFor(t, p, secure.NDAP, true)
	stt, _ := cyclesFor(t, p, secure.STT, false)
	sttAP, _ := cyclesFor(t, p, secure.STT, true)

	if float64(nda) < 1.2*float64(base) {
		t.Errorf("NDA-P (%d cycles) should be at least 20%% slower than baseline (%d)", nda, base)
	}
	if stt > nda+nda/20 {
		t.Errorf("STT (%d cycles) should not be materially slower than NDA-P (%d)", stt, nda)
	}
	if ndaAP >= nda || sttAP >= stt {
		t.Errorf("AP did not speed up the schemes: nda %d->%d, stt %d->%d", nda, ndaAP, stt, sttAP)
	}
	if cov := c.Stats.Coverage(); cov < 0.5 {
		t.Errorf("gather coverage %.2f, want >= 0.5 (stride-predictable dependent load)", cov)
	}
	if acc := c.Stats.Accuracy(); acc < 0.9 {
		t.Errorf("gather accuracy %.2f, want >= 0.9", acc)
	}
}

// TestDoppelgangerNeverFasterSerial: on a pure pointer chain with no
// learnable stride, AP must not change performance materially in any scheme
// (predictions either absent or useless, and mispredictions must stay
// cheap).
func TestDoppelgangerHarmlessOnRandomChain(t *testing.T) {
	p := buildSerialChain(600, true)
	for _, scheme := range secure.Schemes() {
		off, _ := cyclesFor(t, p, scheme, false)
		on, _ := cyclesFor(t, p, scheme, true)
		ratio := float64(on) / float64(off)
		if ratio > 1.10 || ratio < 0.90 {
			t.Errorf("%v: AP changed random-chain cycles by %.1f%% (off=%d on=%d)",
				scheme, (ratio-1)*100, off, on)
		}
	}
}

// TestCleanupJournalBounded runs the stream workload under Cleanup, where
// loads are in flight behind unresolved branches for the whole run, so the
// undo journal is never empty. Its record slice must stay a small multiple
// of the peak number of live records rather than growing with the run.
func TestCleanupJournalBounded(t *testing.T) {
	w, ok := workload.ByName("stream")
	if !ok {
		t.Fatal("no stream workload")
	}
	cfg := DefaultConfig()
	cfg.Scheme = secure.Cleanup
	c, err := New(cfg, w.Build(workload.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for !c.Halted() {
		if c.Cycle() > 50_000_000 {
			t.Fatal("stream did not halt")
		}
		c.Step()
		if p := c.Hierarchy().UndoPending(); p > peak {
			peak = p
		}
	}
	if c.Stats.BranchMispredicts == 0 {
		t.Fatal("no squashes: the run never exercised rollback")
	}
	if got, limit := c.Hierarchy().UndoCapacity(), 4*peak+256; got > limit {
		t.Errorf("journal capacity %d after %d cycles exceeds %d (peak %d live records)",
			got, c.Cycle(), limit, peak)
	}
}
