package main

import (
	"fmt"
	"time"

	"doppelganger/internal/engine"
	"doppelganger/internal/harness"
	"doppelganger/internal/program"
	"doppelganger/internal/secure"
	"doppelganger/internal/workload"
	"doppelganger/sim"
)

// The figures workload is the paper's evaluation matrix at test scale:
// 14 kernels under the unsafe baseline, NDA-P, STT, DoM and Cleanup, each
// with and without address prediction — 140 cells on a fresh engine, run
// by harness.Run with Verify on and followed by harness.CheckShape. It is
// what `figures -scale test` users wait on, and it was chosen because its
// time goes to long simulations: the pipeline cycle loop, the memory
// hierarchy and the Cleanup undo journal, over kernels from L1-resident
// (matrix_blocked) to DRAM-sized (stream, stencil). Core construction and
// observation are a small share, and checkpoints are not used. It has no
// seed.

// interpretLimit bounds the reference interpreter, as harness.Run does.
const interpretLimit = 100_000_000

// tinyFigures is the kernel subset of a -tiny run.
var tinyFigures = []string{"matrix_blocked", "scan_match"}

type figuresBatch struct {
	names []string
	refs  []uint64 // reference-interpreter checksum per kernel
	eng   *engine.Engine
}

func figureNames(o *options) []string {
	if o.tiny {
		return tinyFigures
	}
	return workload.Names()
}

// setupFigures builds every kernel, runs the reference interpreter on it
// for the checksum each cell must reproduce, and starts a fresh engine.
func setupFigures(o *options, _ int) (batch, error) {
	b := &figuresBatch{names: figureNames(o)}
	for _, name := range b.names {
		w, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		ref := program.Run(w.Build(workload.ScaleTest), interpretLimit)
		if !ref.Halted {
			return nil, fmt.Errorf("kernel %s: reference run did not halt", name)
		}
		b.refs = append(b.refs, ref.Checksum())
	}
	b.eng = engine.New(engine.Options{Workers: o.workers})
	return b, nil
}

func (b *figuresBatch) close() { b.eng.Close() }

// figureCells lists the matrix in harness order: kernel, scheme, ±AP.
func figureCells(names []string) []harness.Key {
	schemes := append([]secure.Scheme{secure.Unsafe}, harness.Schemes...)
	var out []harness.Key
	for _, name := range names {
		for _, s := range schemes {
			for _, ap := range []bool{false, true} {
				out = append(out, harness.Key{Workload: name, Scheme: s, AP: ap})
			}
		}
	}
	return out
}

// figuresOutcome is what a figures pass produced, public or re-driven.
type figuresOutcome struct {
	output, model string
	shapeFailures int
	checks        int
}

// checkFigures verifies every cell against the reference checksums and
// every shape claim, and digests the matrix.
func checkFigures(tl *tally, names []string, refs []uint64, m *harness.Matrix, shape []harness.ShapeCheck) figuresOutcome {
	var fo figuresOutcome
	out, model := newDigest(), newDigest()
	ref := make(map[string]uint64, len(names))
	for i, name := range names {
		ref[name] = refs[i]
	}
	for _, k := range figureCells(names) {
		r, ok := m.Results[k]
		tl.check(ok && r.Checksum == ref[k.Workload], "figures %s/%v/ap=%v: checksum %#x, reference %#x (present %v)",
			k.Workload, k.Scheme, k.AP, r.Checksum, ref[k.Workload], ok)
		label := fmt.Sprintf("%s/%v/%v", k.Workload, k.Scheme, k.AP)
		out.add(label, r.Checksum, r.Cycles)
		model.run(label, r.Checksum, r.Stats, r.Memory)
		fo.checks++
	}
	for _, c := range shape {
		tl.check(c.Pass, "figures shape check %s: %s (%s)", c.Name, c.Claim, c.Detail)
		out.add(c.Name, c.Pass)
		if !c.Pass {
			fo.shapeFailures++
		}
		fo.checks++
	}
	fo.output, fo.model = out.sum(), model.sum()
	return fo
}

func (b *figuresBatch) run(tl *tally) repOut {
	t0 := time.Now()
	m, err := harness.Run(harness.Options{Scale: workload.ScaleTest, Workloads: b.names, Verify: true, Engine: b.eng})
	var shape []harness.ShapeCheck
	if err == nil {
		shape = harness.CheckShape(m)
	}
	wall := time.Since(t0)
	if err != nil {
		tl.fail(err)
		return repOut{wall: wall}
	}
	fo := checkFigures(tl, b.names, b.refs, m, shape)
	st := b.eng.Stats()
	tl.check(st.CacheHits == 0, "figures: %d engine cache hits on a fresh engine", st.CacheHits)
	return repOut{wall: wall, checks: fo.checks, output: fo.output, model: fo.model}
}

// engineMetrics renders an engine's activity over a wall-clock span.
func engineMetrics(st engine.Stats, wall time.Duration, insts uint64, out map[string]float64) {
	out["engine.jobs"] = float64(st.JobsRun)
	out["engine.cache_hits"] = float64(st.CacheHits)
	out["engine.busy_s"] = st.SimWall.Seconds()
	if wall > 0 && st.Workers > 0 {
		out["engine.idle_share"] = 1 - st.SimWall.Seconds()/(wall.Seconds()*float64(st.Workers))
	}
	if insts > 0 && st.SimWall > 0 {
		out["engine.sim_kips"] = float64(insts) / 1e3 / st.SimWall.Seconds()
	}
}

// tracedFigures runs the matrix once through harness.Run for the engine
// figures and the reference outputs, then re-drives it cell by cell —
// workload.Build, program.Run, sim.NewCore, Core.Run, sim.Summarize,
// harness.CheckShape — with tracing off and on.
func tracedFigures(o *options, tl *tally) (*tracedRun, error) {
	bt, err := setupFigures(o, 0)
	if err != nil {
		return nil, err
	}
	b := bt.(*figuresBatch)
	t0 := time.Now()
	m, err := harness.Run(harness.Options{Scale: workload.ScaleTest, Workloads: b.names, Verify: true, Engine: b.eng})
	wall := time.Since(t0)
	st := b.eng.Stats()
	b.close()
	if err != nil {
		return nil, err
	}
	pub := checkFigures(tl, b.names, b.refs, m, harness.CheckShape(m))
	tl.check(st.CacheHits == 0, "figures: %d engine cache hits on a fresh engine", st.CacheHits)
	var insts uint64
	for _, r := range m.Results {
		insts += r.Insts
	}
	out := make(map[string]float64)
	engineMetrics(st, wall, insts, out)

	offStart := time.Now()
	off, _, err := redriveFigures(b.names, newTracer(false))
	offWall := time.Since(offStart)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	on, counts, err := redriveFigures(b.names, tr)
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		what     string
		got, ref string
	}{
		{"traced checksums and cycles per cell", on.output, pub.output},
		{"traced model counts", on.model, pub.model},
		{"untraced re-drive model counts", off.model, pub.model},
	} {
		tl.check(c.got == c.ref, "figures: %s %s differ from harness.Run's %s", c.what, c.got, c.ref)
	}
	tl.check(on.shapeFailures == 0, "figures: %d shape checks fail in the traced re-drive", on.shapeFailures)
	out["harness.shape_failures"] = float64(pub.shapeFailures)
	counts.metrics(out)
	layerMetrics(tr, offWall, counts.Cycles, out)
	return &tracedRun{layers: out, tr: tr, output: on.output, model: on.model}, nil
}

// redriveFigures recomposes harness.Run serially from the layers' exported
// calls, checking each cell against its own reference interpretation.
func redriveFigures(names []string, tr *tracer) (figuresOutcome, *modelCounts, error) {
	root := tr.begin("perfbench.figures", -1)
	defer tr.end(root)
	progs := make([]*sim.Program, len(names))
	refs := make([]uint64, len(names))
	for i, name := range names {
		w, ok := workload.ByName(name)
		if !ok {
			return figuresOutcome{}, nil, fmt.Errorf("unknown kernel %q", name)
		}
		tr.do("workload.build", i, func() { progs[i] = w.Build(workload.ScaleTest) })
		tr.do("program.interpret", i, func() { refs[i] = program.Run(progs[i], interpretLimit).Checksum() })
	}
	index := make(map[string]int, len(names))
	for i, name := range names {
		index[name] = i
	}
	m := &harness.Matrix{Workloads: names, Results: make(map[harness.Key]sim.Result)}
	counts := &modelCounts{}
	for op, k := range figureCells(names) {
		prog := progs[index[k.Workload]]
		cfg := sim.Config{Scheme: k.Scheme, AddressPrediction: k.AP}
		var core *sim.Core
		var err error
		tr.do("pipeline.new", op, func() { core, err = sim.NewCore(prog, cfg) })
		if err != nil {
			return figuresOutcome{}, nil, err
		}
		tr.do("pipeline.run."+k.Scheme.String(), op, func() { err = core.Run(0, sim.DefaultMaxCycles) })
		if err != nil {
			return figuresOutcome{}, nil, fmt.Errorf("%s under %v: %w", k.Workload, k.Scheme, err)
		}
		var res sim.Result
		tr.do("sim.summarize", op, func() { res = sim.Summarize(prog, cfg, core) })
		m.Results[k] = res
		counts.add(res.Stats, res.Memory)
	}
	var shape []harness.ShapeCheck
	tr.do("harness.check_shape", -1, func() { shape = harness.CheckShape(m) })
	var tl tally
	fo := checkFigures(&tl, names, refs, m, shape)
	if tl.failed > fo.shapeFailures {
		return fo, counts, fmt.Errorf("figures re-drive: %s", tl.failures[0])
	}
	return fo, counts, nil
}
