package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"doppelganger/internal/checkpoint"
	"doppelganger/internal/isa"
	"doppelganger/internal/leakcheck"
	"doppelganger/internal/pipeline"
	"doppelganger/internal/program"
	"doppelganger/internal/secure"
	"doppelganger/sim"
)

// The leakcheck workload is the leakcheck CLI's default run:
// leakcheck.Sweep over {unsafe, nda-p, stt, dom, cleanup} × ±AP from the
// seed, then leakcheck.MutationGauntlet. Chosen because it runs thousands
// of tiny gadget pairs, so its time goes to fixed per-run costs —
// pipeline.New and its cache arrays, MicroDigest/OccupiedSets and
// program.RunTainted — rather than the cycle loop that dominates figures.
//
// The leakcheck_warm workload is the same sweep with WarmupInsts set, as
// CI's warm leakcheck step runs it, with the gauntlet off. Every gadget run
// goes through Drain, CaptureState, checkpoint.New and a restore; without
// it the checkpoint layer would go unmeasured.

const (
	// sweepSeeds and warmSeeds are the gadget seeds one repetition sweeps
	// under every config; gauntletSeeds bounds each planted mutation's
	// hunt, as the CLI's -mutation-seeds does.
	sweepSeeds    = 16
	warmSeeds     = 2
	gauntletSeeds = 64
	// warmupInsts is where warm runs snapshot, as CI's warm step does.
	warmupInsts = 200
)

// sweepConfigs is the CLI's default scheme matrix.
func sweepConfigs(warm bool) []leakcheck.Config {
	var out []leakcheck.Config
	for _, s := range []secure.Scheme{secure.Unsafe, secure.NDAP, secure.STT, secure.DoM, secure.Cleanup} {
		for _, ap := range []bool{false, true} {
			c := leakcheck.Config{Scheme: s, AP: ap}
			if warm {
				c.WarmupInsts = warmupInsts
			}
			out = append(out, c)
		}
	}
	return out
}

type leakBatch struct {
	cfgs     []leakcheck.Config
	first    int64
	seeds    int
	gauntlet bool
	workers  int
}

// setupLeakcheck returns the set-up for the cold or warm sweep: it
// generates the repetition's gadgets, builds both secret variants of each
// and checks that the reference interpreter runs them to completion.
func setupLeakcheck(warm bool) func(o *options, rep int) (batch, error) {
	return func(o *options, rep int) (batch, error) {
		b := &leakBatch{cfgs: sweepConfigs(warm), seeds: sweepSeeds, gauntlet: !warm, workers: o.workers}
		switch {
		case o.tiny:
			b.seeds = 1
		case warm:
			b.seeds = warmSeeds
		}
		b.first = repSeed(o.seed, rep, b.seeds)
		for s := b.first; s < b.first+int64(b.seeds); s++ {
			if err := checkHalts(leakcheck.Generate(s)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
}

// checkHalts builds both secret variants of a gadget and checks that the
// reference interpreter runs each to completion.
func checkHalts(p leakcheck.Params) error {
	p = p.Normalize()
	for _, secret := range []uint8{p.SecretA, p.SecretB} {
		if st := program.Run(p.Build(secret), interpretLimit); !st.Halted {
			return fmt.Errorf("gadget %s secret %#x: reference run did not halt", p, secret)
		}
	}
	return nil
}

func (b *leakBatch) close() {}

// leakOutcome is a sweep's verdict-relevant output: which (config, seed)
// pairs leaked through which components, and where each planted mutation
// was caught.
type leakOutcome struct {
	sweeps    [][]leakcheck.SeedLeak
	mutations []leakcheck.MutationOutcome
}

// pairChecks counts the differential pair checks the outcome took.
func (lo *leakOutcome) pairChecks(seeds int) int {
	n := len(lo.sweeps) * seeds
	for _, m := range lo.mutations {
		n += m.SeedsTried
	}
	return n
}

// check applies the failure rules: a leak under an intact secure config,
// an unsafe config that never leaks, and a planted mutation left uncaught
// each count as a failed operation. It returns the outputs' digest.
func (lo *leakOutcome) check(tl *tally, cfgs []leakcheck.Config, seeds int) string {
	d := newDigest()
	for i, cfg := range cfgs {
		leaks := lo.sweeps[i]
		for _, sl := range leaks {
			d.add(cfg, sl.Seed, strings.Join(sl.Leak.Components, ","))
		}
		secureLeaks := 0
		if cfg.Secure() {
			secureLeaks = len(leaks)
		}
		tl.attempted += seeds - secureLeaks
		for _, sl := range leaks[:secureLeaks] {
			tl.check(false, "SECURITY: %s", sl.Leak.String())
		}
		if !cfg.Secure() {
			tl.check(len(leaks) > 0, "VACUOUS: %s leaked on 0/%d seeds", cfg, seeds)
		}
	}
	for _, m := range lo.mutations {
		d.add(m.Mutation, m.Detected, m.Seed, m.SeedsTried)
		tl.check(m.Detected, "mutation %s not caught in %d seeds", m.Mutation, m.SeedsTried)
	}
	return d.sum()
}

// public runs the sweep (and gauntlet) through the package's entry points.
func (b *leakBatch) public(ctx context.Context) (*leakOutcome, error) {
	sweeps, err := leakcheck.Sweep(ctx, b.cfgs, b.first, b.seeds, b.workers)
	if err != nil {
		return nil, err
	}
	lo := &leakOutcome{}
	for _, sw := range sweeps {
		lo.sweeps = append(lo.sweeps, sw.Leaks)
	}
	if b.gauntlet {
		if lo.mutations, err = leakcheck.MutationGauntlet(ctx, b.first, gauntletSeeds); err != nil {
			return nil, err
		}
	}
	return lo, nil
}

func (b *leakBatch) run(tl *tally) repOut {
	t0 := time.Now()
	lo, err := b.public(context.Background())
	wall := time.Since(t0)
	if err != nil {
		tl.fail(err)
		return repOut{wall: wall}
	}
	return repOut{wall: wall, checks: lo.pairChecks(b.seeds), output: lo.check(tl, b.cfgs, b.seeds)}
}

// tracedLeakcheck runs the sweep once through its public entry points,
// then re-drives every pair check — Params.Build, sim.NewCore,
// EnableObsTraces, Core.Run, MicroDigest, ObsTraces, program.RunTainted,
// OccupiedSets, and on the warm path Drain, CaptureState, checkpoint.New
// and sim.NewCoreFromCheckpoint — with tracing off and on.
func tracedLeakcheck(warm bool) func(o *options, tl *tally) (*tracedRun, error) {
	return func(o *options, tl *tally) (*tracedRun, error) {
		bt, err := setupLeakcheck(warm)(o, 0)
		if err != nil {
			return nil, err
		}
		b := bt.(*leakBatch)
		lo, err := b.public(context.Background())
		if err != nil {
			return nil, err
		}
		pub := lo.check(tl, b.cfgs, b.seeds)

		offStart := time.Now()
		offLO, off, err := b.redrive(newTracer(false))
		offWall := time.Since(offStart)
		if err != nil {
			return nil, err
		}
		tr := newTracer(true)
		onLO, on, err := b.redrive(tr)
		if err != nil {
			return nil, err
		}
		var scratch tally
		tl.check(offLO.check(&scratch, b.cfgs, b.seeds) == pub, "%s: untraced re-drive leak sets differ from the public sweep's", o.workload)
		tl.check(onLO.check(&scratch, b.cfgs, b.seeds) == pub, "%s: traced re-drive leak sets differ from the public sweep's", o.workload)
		tl.check(on.model.sum() == off.model.sum(), "%s: model counts differ with tracing on (%s) and off (%s)",
			o.workload, on.model.sum(), off.model.sum())

		out := make(map[string]float64)
		on.counts.metrics(out)
		layerMetrics(tr, offWall, on.counts.Cycles, out)
		out["checkpoint.bytes"] = float64(on.ckptBytes)
		return &tracedRun{layers: out, tr: tr, output: pub, model: on.model.sum()}, nil
	}
}

// redriveState accumulates a re-drive's exact counts.
type redriveState struct {
	tr        *tracer
	counts    modelCounts
	model     *digest
	ckptBytes int
}

// redrive recomposes the batch serially from the layers' exported calls.
func (b *leakBatch) redrive(tr *tracer) (*leakOutcome, *redriveState, error) {
	rs := &redriveState{tr: tr, model: newDigest()}
	root := tr.begin("perfbench.leakcheck", -1)
	defer tr.end(root)
	lo := &leakOutcome{sweeps: make([][]leakcheck.SeedLeak, len(b.cfgs))}
	op := 0
	for ci, cfg := range b.cfgs {
		for s := b.first; s < b.first+int64(b.seeds); s++ {
			comps, err := rs.check(op, leakcheck.Generate(s), cfg)
			op++
			if err != nil {
				return nil, nil, err
			}
			if len(comps) > 0 {
				lo.sweeps[ci] = append(lo.sweeps[ci], leakcheck.SeedLeak{Seed: s,
					Leak: leakcheck.Leak{Params: leakcheck.Generate(s).Normalize(), Config: cfg, Components: comps}})
			}
		}
	}
	if !b.gauntlet {
		return lo, rs, nil
	}
	g := tr.begin("leakcheck.gauntlet", -1)
	defer tr.end(g)
	for _, m := range secure.Mutations() {
		scheme, needAP := m.Target()
		mo := leakcheck.MutationOutcome{Mutation: m, Config: leakcheck.Config{Scheme: scheme, AP: needAP, Mutation: m}}
		for s := b.first; s < b.first+gauntletSeeds; s++ {
			comps, err := rs.check(op, leakcheck.GauntletParams(s, m), mo.Config)
			op++
			mo.SeedsTried++
			if err != nil {
				return nil, nil, err
			}
			if len(comps) > 0 {
				mo.Detected, mo.Seed = true, s
				break
			}
		}
		lo.mutations = append(lo.mutations, mo)
	}
	return lo, rs, nil
}

// observation is what leakcheck.Check compares: every component of the
// full contract lattice for one run.
type observation struct {
	pubArch                              uint64
	addrSeq, ctrlSeq, addrSpec, ctrlSpec uint64
	micro                                sim.MicroDigest
	// cover is captured as sim.Observe captures it; it feeds campaign
	// coverage, not the leak verdict.
	cover [3]uint64
}

// value maps a lattice component name to its digest, as sim.Observation
// does.
func (ob *observation) value(name string) (uint64, error) {
	switch name {
	case "arch-public":
		return ob.pubArch, nil
	case "ctrl-trace-commit":
		return ob.ctrlSeq, nil
	case "branch-predictor":
		return ob.micro.Branch, nil
	case "ctrl-trace-spec":
		return ob.ctrlSpec, nil
	case "addr-trace-commit":
		return ob.addrSeq, nil
	case "addr-trace-spec":
		return ob.addrSpec, nil
	case "stride-predictor":
		return ob.micro.Stride, nil
	case "context-predictor":
		return ob.micro.Context, nil
	case "cycles":
		return ob.micro.Cycles, nil
	case "L1":
		return ob.micro.L1, nil
	case "L2":
		return ob.micro.L2, nil
	case "L3":
		return ob.micro.L3, nil
	case "mshr-timeline":
		return ob.micro.MSHR, nil
	case "traffic":
		return ob.micro.Traffic, nil
	}
	return 0, fmt.Errorf("unknown observation component %q", name)
}

// check is leakcheck.Check recomposed: both secrets of the pair, then the
// components in which the observations differ, in reporting order.
func (rs *redriveState) check(op int, p leakcheck.Params, cfg leakcheck.Config) ([]string, error) {
	id := rs.tr.begin("leakcheck.check", op)
	defer rs.tr.end(id)
	p = p.Normalize()
	var obs [2]observation
	for i, secret := range []uint8{p.SecretA, p.SecretB} {
		if err := rs.observe(op, p, cfg, secret, &obs[i]); err != nil {
			return nil, fmt.Errorf("%s secret=%#x under %s: %w", p, secret, cfg, err)
		}
	}
	var comps []string
	for _, name := range sim.CTSpec.VisibleComponents() {
		a, err := obs[0].value(name)
		if err != nil {
			return nil, err
		}
		if b, _ := obs[1].value(name); a != b {
			comps = append(comps, name)
		}
	}
	return comps, nil
}

// observe runs one secret of a pair and captures its observation.
func (rs *redriveState) observe(op int, p leakcheck.Params, cfg leakcheck.Config, secret uint8, ob *observation) error {
	tr := rs.tr
	var prog *sim.Program
	tr.do("leakcheck.build", op, func() { prog = p.Build(secret) })
	simCfg := cfg.SimConfig(p)
	runSpan := "pipeline.run." + cfg.Scheme.String()
	var core *sim.Core
	var err error
	tr.do("pipeline.new", op, func() { core, err = sim.NewCore(prog, simCfg) })
	if err != nil {
		return err
	}
	if cfg.WarmupInsts > 0 {
		if core, err = rs.warmRestore(op, prog, simCfg, cfg.WarmupInsts, core, runSpan); err != nil {
			return err
		}
	}
	core.EnableObsTraces()
	tr.do(runSpan, op, func() { err = core.Run(simCfg.MaxInsts, simCfg.MaxCycles) })
	if err != nil {
		return err
	}
	tr.do("pipeline.micro_digest", op, func() { ob.micro = core.MicroDigest() })
	tr.do("pipeline.obs_traces", op, func() { ob.addrSeq, ob.ctrlSeq, ob.addrSpec, ob.ctrlSpec = core.ObsTraces() })
	tr.do("program.run_tainted", op, func() { ob.pubArch = program.RunTainted(prog, core.Stats.Committed).PubChecksum() })
	tr.do("mem.occupied_sets", op, func() {
		h := core.Hierarchy()
		ob.cover = [3]uint64{h.L1D.OccupiedSets(), h.L2.OccupiedSets(), h.L3.OccupiedSets()}
	})
	tr.do("perfbench.count", op, func() {
		st, ms := core.StatsSnapshot(), pipeline.SnapshotMemory(core.Hierarchy())
		rs.counts.add(st, ms)
		rs.model.run(fmt.Sprintf("%d/%s/%#x", p.Seed, cfg, secret), core.Checksum(), st, ms)
	})
	return nil
}

// warmRestore is sim.Snapshot followed by sim.NewCoreFromCheckpoint: run
// the warmup, drain, capture, encode, and restore a fresh core under the
// same configuration.
func (rs *redriveState) warmRestore(op int, prog *sim.Program, cfg sim.Config, warmup uint64, core *sim.Core, runSpan string) (*sim.Core, error) {
	tr := rs.tr
	var err error
	tr.do(runSpan, op, func() { err = core.Run(warmup, cfg.MaxCycles) })
	if err != nil {
		return nil, err
	}
	tr.do("pipeline.drain", op, func() { err = core.Drain(0) })
	if err != nil {
		return nil, err
	}
	var st *pipeline.CoreState
	tr.do("pipeline.capture_state", op, func() { st, err = core.CaptureState() })
	if err != nil {
		return nil, err
	}
	warmCfg := *cfg.Core
	warmCfg.Scheme, warmCfg.AddressPrediction = cfg.Scheme, cfg.AddressPrediction
	meta := checkpoint.Meta{
		ProgramName: prog.Name, ProgramEntry: prog.Entry,
		Code:       append([]isa.Instruction(nil), prog.Code...),
		WarmScheme: cfg.Scheme.String(), WarmAP: cfg.AddressPrediction,
		WarmupInsts: warmup, WarmConfig: warmCfg,
	}
	var ck *checkpoint.Checkpoint
	tr.do("checkpoint.encode", op, func() { ck, err = checkpoint.New(meta, st) })
	if err != nil {
		return nil, err
	}
	rs.ckptBytes += len(ck.Encode())
	var restored *sim.Core
	tr.do("pipeline.restore", op, func() { restored, _, err = sim.NewCoreFromCheckpoint(prog, cfg, ck) })
	return restored, err
}
