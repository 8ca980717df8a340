package pipeline

import (
	"fmt"

	"doppelganger/internal/isa"
	"doppelganger/internal/mem"
	"doppelganger/internal/obs"
	"doppelganger/internal/predictor"
	"doppelganger/internal/program"
	"doppelganger/internal/secure"
)

// fetched is a decoded instruction waiting in the fetch/decode buffer.
type fetched struct {
	pc         uint64
	in         isa.Instruction
	predTaken  bool
	predTarget uint64
	hist       uint64 // speculative global history at fetch (gshare)
}

// Core is the out-of-order processor. Create one per program run with New;
// a Core is single-use (Run once) and not safe for concurrent use.
type Core struct {
	cfg  Config
	prog *program.Program

	hier   *mem.Hierarchy
	bp     predictor.BranchPredictor
	bpBim  *predictor.Bimodal // non-nil when bp is the bimodal (devirtualized)
	bpG    *predictor.GShare  // non-nil when BranchGShare is selected
	stride *predictor.Stride
	ctx    *predictor.Context   // non-nil for context/hybrid address prediction
	vp     *predictor.Value     // non-nil when value prediction is enabled
	sset   *predictor.StoreSets // non-nil when memory dependence prediction is on
	// shadows tracks all shadow casters; ctrlShadows tracks only branches
	// (the Spectre taint model's visibility definition).
	shadows     secure.ShadowTracker
	ctrlShadows secure.ShadowTracker
	taints      *secure.TaintTracker

	cycle  uint64
	seqCtr uint64
	halted bool

	// Physical register file: 32 architectural + ROBSize rename registers.
	regVal    []int64
	regReady  []bool
	renameMap [isa.NumRegs]int
	freeList  []int

	rob        ring
	robEntries []uop

	iq             []*uop // dispatch order
	inflightExec   []*uop // ALU executions awaiting completion
	pendingResolve []*uop // branches awaiting resolution

	lq        ring
	lqEntries []lqEntry
	sq        ring
	sqEntries []sqEntry

	// Per-lq-entry wait on a specific store's data (0 = none).
	// Kept in lqEntry via pendingStoreSeq; see memory.go.

	// backing is committed architectural memory.
	backing *memImage

	fetchPC     uint64
	fetchBuf    []fetched
	haltFetched bool
	// fetchStalled suppresses fetch entirely; Drain uses it to let the
	// in-flight window complete without admitting new instructions.
	fetchStalled bool
	// fetchHist is the speculative global branch history (gshare only),
	// repaired on every squash.
	fetchHist uint64

	// inflight counts dispatched-but-not-committed dynamic instances per
	// load PC, for the predictor's address-prediction mode; committedPC
	// counts total committed instances per PC so late predictions (value
	// prediction fires at delayed-miss time, not dispatch) can rebase
	// their occurrence numbers. Both are indexed by PC: loads only ever
	// dispatch from in-range PCs (out-of-range fetch reads as Nop).
	inflight    []int32
	committedPC []uint64

	prefetchBuf []uint64

	// Observability: attached trace sink (tracing caches sink != nil for the
	// hot path), optional cycle window, and cached metric handles. When the
	// sink supports batch delivery, events accumulate in traceBuf and are
	// handed over in chunks (and on every Run exit).
	sink           obs.TraceSink
	batchSink      obs.BatchSink
	traceBuf       []obs.Event
	tracing        bool
	winOn          bool
	winFrom, winTo uint64
	met            *coreMetrics

	// Observation trace capture (observe.go): rolling digests of committed
	// and transient-inclusive address/control traces for the contract
	// oracle. Off unless EnableObsTraces is called.
	obsOn       bool
	obsAddrSeq  uint64
	obsCtrlSeq  uint64
	obsAddrSpec uint64
	obsCtrlSpec uint64

	// caps holds the scheme's capabilities, resolved once in New so the
	// hot path reads a field instead of consulting the registry.
	// inOrderBranches caches whether branches must resolve in order: the
	// paper requires this for DoM enhanced with doppelganger loads (§5.3)
	// to close the implicit channels doppelganger misses would otherwise
	// open.
	caps            secure.Caps
	inOrderBranches bool

	// Undo-scheme state (Caps.UndoesSpeculation): specLog buffers
	// speculative-trace folds of tagged accesses in perform order until
	// their instruction commits (fold) or squashes (drop), because under an
	// undo scheme a squashed access's hierarchy footprint is erased and must
	// not appear in the observable address trace either.
	specLog []specAcc

	// Stats accumulates raw event counts for the run.
	Stats Stats
}

// New builds a core for the given program. The program is validated; the
// configuration must be valid too.
func New(cfg Config, prog *program.Program) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	nPhys := isa.NumRegs + cfg.ROBSize
	c := &Core{
		cfg:         cfg,
		prog:        prog,
		hier:        mem.NewHierarchy(cfg.Memory),
		bp:          predictor.NewBimodal(cfg.Branch),
		stride:      predictor.NewStride(cfg.Stride),
		regVal:      make([]int64, nPhys),
		regReady:    make([]bool, nPhys),
		robEntries:  make([]uop, cfg.ROBSize),
		rob:         newRing(cfg.ROBSize),
		lqEntries:   make([]lqEntry, cfg.LQSize),
		lq:          newRing(cfg.LQSize),
		sqEntries:   make([]sqEntry, cfg.SQSize),
		sq:          newRing(cfg.SQSize),
		backing:     newMemImage(),
		fetchPC:     prog.Entry,
		inflight:    make([]int32, len(prog.Code)),
		committedPC: make([]uint64, len(prog.Code)),
	}
	c.bpBim, _ = c.bp.(*predictor.Bimodal)
	c.caps = cfg.Scheme.Caps()
	c.inOrderBranches = c.caps.DelaysOnMiss && cfg.AddressPrediction
	// Pre-size every structure the cycle loop appends to, so steady-state
	// simulation never grows a slice: queue contents are bounded by the
	// structure sizes (anything in flight occupies a ROB slot).
	c.iq = make([]*uop, 0, cfg.IQSize)
	c.inflightExec = make([]*uop, 0, cfg.ROBSize)
	c.pendingResolve = make([]*uop, 0, cfg.ROBSize)
	c.fetchBuf = make([]fetched, 0, 2*cfg.DecodeWidth)
	c.prefetchBuf = make([]uint64, 0, cfg.PrefetchDegree)
	c.shadows.Reserve(cfg.ROBSize)
	c.ctrlShadows.Reserve(cfg.ROBSize)
	if c.caps.ControlOnlyTaint {
		c.taints = secure.NewTaintTracker(nPhys, &c.ctrlShadows)
	} else {
		c.taints = secure.NewTaintTracker(nPhys, &c.shadows)
	}
	if cfg.BranchPredictorKind == BranchGShare {
		c.bpG = predictor.NewGShare(cfg.GShare)
	}
	if cfg.AddressPredictorKind != PredictorStride {
		c.ctx = predictor.NewContext(cfg.Context)
	}
	if cfg.ValuePrediction {
		c.vp = predictor.NewValue(cfg.Value)
	}
	if cfg.MemDepPrediction {
		c.sset = predictor.NewStoreSets(cfg.StoreSets)
	}
	if c.caps.UndoesSpeculation {
		// CleanupSpec-style undo: the hierarchy journals every tagged
		// speculative side effect; squashes roll the journal back (see
		// squashAfter) and commit retires it (see commit). The planted
		// weakenings selectively disable parts of the rollback.
		c.hier.EnableUndo(mem.UndoOptions{
			SkipLRUUndo: cfg.Mutation.SkipsLRUUndo(),
			DropEvicted: cfg.Mutation.DropsEvictedLines(),
		})
		c.specLog = make([]specAcc, 0, cfg.ROBSize)
	}
	for r := 0; r < isa.NumRegs; r++ {
		c.renameMap[r] = r
		c.regVal[r] = prog.InitRegs[r]
		c.regReady[r] = true
	}
	c.freeList = make([]int, 0, cfg.ROBSize)
	for p := nPhys - 1; p >= isa.NumRegs; p-- {
		c.freeList = append(c.freeList, p)
	}
	for a, v := range prog.InitMem {
		c.backing.store(program.AlignAddr(a), v)
	}
	return c, nil
}

// Hierarchy exposes the memory system (for statistics and tests).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Stride exposes the shared prefetcher/address-predictor table (for
// statistics and the security tests that fingerprint its state).
func (c *Core) Stride() *predictor.Stride { return c.stride }

// ContextPredictor exposes the Markov address predictor, or nil when the
// stride-only configuration is active.
func (c *Core) ContextPredictor() *predictor.Context { return c.ctx }

// apPredict runs address-prediction mode across the configured tables.
func (c *Core) apPredict(pc uint64, occurrence int) (uint64, bool) {
	switch c.cfg.AddressPredictorKind {
	case PredictorContext:
		if c.ctx == nil {
			return 0, false
		}
		return c.ctx.Predict(pc, occurrence)
	case PredictorHybrid:
		if addr, ok := c.stride.Predict(pc, occurrence); ok {
			return addr, ok
		}
		if c.ctx == nil {
			return 0, false
		}
		return c.ctx.Predict(pc, occurrence)
	default:
		return c.stride.Predict(pc, occurrence)
	}
}

// SetBranchPredictor replaces the branch direction predictor. It must be
// called before Run; tests use static predictors for deterministic
// misprediction patterns.
func (c *Core) SetBranchPredictor(bp predictor.BranchPredictor) {
	c.bp = bp
	c.bpBim, _ = bp.(*predictor.Bimodal)
}

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// Halted reports whether the program has committed its Halt.
func (c *Core) Halted() bool { return c.halted }

// Run simulates until the program halts, maxInsts instructions have
// committed (0 = unlimited), or maxCycles cycles have elapsed. It returns
// an error only if the cycle limit was hit without halting, which indicates
// a deadlocked pipeline or a runaway program.
func (c *Core) Run(maxInsts, maxCycles uint64) error {
	defer c.flushObs()
	for !c.halted {
		if maxInsts > 0 && c.Stats.Committed >= maxInsts {
			return nil
		}
		if maxCycles > 0 && c.cycle >= maxCycles {
			return fmt.Errorf("pipeline: cycle limit %d reached at %d committed instructions (possible deadlock)",
				maxCycles, c.Stats.Committed)
		}
		c.Step()
	}
	return nil
}

// Step advances the machine by one cycle.
func (c *Core) Step() {
	c.cycle++
	c.commit()
	if c.halted {
		return
	}
	c.writeback()
	c.resolveBranches()
	c.storeQueuePass()
	c.loadQueuePass()
	c.issue()
	c.dispatch()
	c.fetch()
	if c.cfg.SelfCheck {
		if err := c.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("pipeline: invariant violated at cycle %d: %v", c.cycle, err))
		}
	}
	c.Stats.Cycles = c.cycle
	if c.met != nil {
		c.met.robOcc.Observe(uint64(c.rob.len()))
		c.met.iqOcc.Observe(uint64(len(c.iq)))
	}
}

// ArchRegs returns the current architectural register values (the committed
// rename mapping).
func (c *Core) ArchRegs() [isa.NumRegs]int64 {
	var regs [isa.NumRegs]int64
	for r := 0; r < isa.NumRegs; r++ {
		regs[r] = c.regVal[c.renameMap[r]]
	}
	return regs
}

// ArchState assembles the committed architectural state for comparison with
// the reference interpreter. Callers must only rely on it when the core is
// quiescent (halted), since speculative rename mappings are not rolled back
// here.
func (c *Core) ArchState() *program.ArchState {
	st := &program.ArchState{
		Mem:    c.backing.toMap(),
		Halted: c.halted,
		Insts:  c.Stats.Committed,
		Loads:  c.Stats.CommittedLoads,
		Stores: c.Stats.CommittedStores,
	}
	st.Regs = c.ArchRegs()
	return st
}

// ReadMem returns the committed value of the memory word at addr.
func (c *Core) ReadMem(addr uint64) int64 { return c.backing.load(program.AlignAddr(addr)) }

// InjectInvalidation models an external coherence invalidation reaching the
// core (§4.5): the line is removed from the caches and the load queue is
// snooped. Live doppelganger entries are marked rather than squashed; the
// mark takes effect at propagation only if the prediction verifies.
// Returns whether any LQ entry matched.
func (c *Core) InjectInvalidation(addr uint64) bool {
	c.hier.Invalidate(addr)
	la := mem.LineAddr(addr)
	matched := false
	for i := 0; i < c.lq.len(); i++ {
		e := &c.lqEntries[c.lq.at(i)]
		if !e.valid {
			continue
		}
		if a, ok := e.matchAddr(); ok && mem.LineAddr(a) == la {
			e.invalidated = true
			matched = true
		}
	}
	return matched
}

// alloc pops a free physical register; the free list is sized so this can
// never fail while the ROB has space.
func (c *Core) alloc() int {
	n := len(c.freeList)
	if n == 0 {
		panic("pipeline: physical register file exhausted")
	}
	p := c.freeList[n-1]
	c.freeList = c.freeList[:n-1]
	return p
}

func (c *Core) free(p int) {
	c.freeList = append(c.freeList, p)
	c.taints.Clear(p)
}

// squashAfter removes every uop younger than survivorSeq, restores the
// rename map and branch history, and redirects fetch to newPC.
func (c *Core) squashAfter(survivorSeq, newPC, newHist uint64) {
	for !c.rob.empty() {
		u := &c.robEntries[c.rob.tailIdx()]
		if u.seq <= survivorSeq {
			break
		}
		if u.dst != noReg {
			c.renameMap[u.in.Dst] = u.oldDst
			c.regReady[u.dst] = false
			c.free(u.dst)
		}
		if u.lqIdx >= 0 {
			if got := c.lq.tailIdx(); got != u.lqIdx {
				panic(fmt.Sprintf("pipeline: LQ squash mismatch: tail %d, uop %d", got, u.lqIdx))
			}
			c.lqEntries[u.lqIdx] = lqEntry{}
			c.lq.popTail()
			c.inflight[u.pc]--
		}
		if u.sqIdx >= 0 {
			if got := c.sq.tailIdx(); got != u.sqIdx {
				panic(fmt.Sprintf("pipeline: SQ squash mismatch: tail %d, uop %d", got, u.sqIdx))
			}
			c.sqEntries[u.sqIdx] = sqEntry{}
			c.sq.popTail()
		}
		c.rob.popTail()
		c.Stats.Squashed++
	}
	c.shadows.SquashAfter(survivorSeq)
	c.ctrlShadows.SquashAfter(survivorSeq)
	if c.caps.UndoesSpeculation {
		// Undo scheme: erase the squashed instructions' hierarchy footprint
		// (fills, recency, counters, MSHRs) and drop their buffered
		// speculative-trace folds — retrospective protection happens here.
		c.hier.RollbackAfter(survivorSeq)
		c.dropSpecAfter(survivorSeq)
	}
	c.fetchHist = newHist
	c.iq = filterYounger(c.iq, survivorSeq)
	c.inflightExec = filterYounger(c.inflightExec, survivorSeq)
	c.pendingResolve = filterYounger(c.pendingResolve, survivorSeq)
	c.fetchBuf = c.fetchBuf[:0]
	c.fetchPC = newPC
	c.haltFetched = false
}

func filterYounger(list []*uop, survivorSeq uint64) []*uop {
	out := list[:0]
	for _, u := range list {
		if u.seq <= survivorSeq {
			out = append(out, u)
		}
	}
	return out
}

// speculative reports whether the instruction is under any shadow.
func (c *Core) speculative(seq uint64) bool { return c.shadows.Speculative(seq) }
