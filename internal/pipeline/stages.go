package pipeline

import (
	"doppelganger/internal/isa"
	"doppelganger/internal/obs"
	"doppelganger/internal/program"
)

// fetch brings up to DecodeWidth instructions into the fetch buffer,
// following predicted control flow. Fetch continues down mispredicted
// (wrong) paths until the branch resolves and squashes — wrong-path
// instructions really execute and really touch the caches.
func (c *Core) fetch() {
	if c.haltFetched || c.fetchStalled {
		return
	}
	limit := 2 * c.cfg.DecodeWidth
	for n := 0; n < c.cfg.DecodeWidth && len(c.fetchBuf) < limit; n++ {
		in := c.prog.Fetch(c.fetchPC)
		f := fetched{pc: c.fetchPC, in: in}
		if c.obsOn {
			c.obsSpecFetch(f.pc)
		}
		switch in.Op.Kind() {
		case isa.KindBranch:
			f.hist = c.fetchHist
			if c.bpG != nil {
				f.predTaken = c.bpG.PredictWithHistory(c.fetchPC, c.fetchHist)
				bit := uint64(0)
				if f.predTaken {
					bit = 1
				}
				c.fetchHist = ((c.fetchHist << 1) | bit) & c.bpG.HistoryMask()
			} else if c.bpBim != nil {
				f.predTaken = c.bpBim.Predict(c.fetchPC)
			} else {
				f.predTaken = c.bp.Predict(c.fetchPC)
			}
			if f.predTaken {
				f.predTarget = uint64(in.Imm)
			} else {
				f.predTarget = c.fetchPC + 1
			}
			c.fetchPC = f.predTarget
		case isa.KindJump:
			f.predTaken = true
			f.predTarget = uint64(in.Imm)
			c.fetchPC = f.predTarget
		case isa.KindHalt:
			c.haltFetched = true
			c.fetchBuf = append(c.fetchBuf, f)
			return
		default:
			c.fetchPC++
		}
		c.fetchBuf = append(c.fetchBuf, f)
	}
}

// dispatch renames and dispatches instructions from the fetch buffer into
// the ROB (and IQ/LQ/SQ as needed), up to DecodeWidth per cycle.
func (c *Core) dispatch() {
	n := 0
	for n < c.cfg.DecodeWidth && n < len(c.fetchBuf) {
		f := c.fetchBuf[n]
		kind := f.in.Op.Kind()
		if c.rob.full() {
			break
		}
		needsIQ := kind == isa.KindALU || kind == isa.KindLoad ||
			kind == isa.KindStore || kind == isa.KindBranch
		if needsIQ && len(c.iq) >= c.cfg.IQSize {
			break
		}
		if kind == isa.KindLoad && c.lq.full() {
			break
		}
		if kind == isa.KindStore && c.sq.full() {
			break
		}

		c.seqCtr++
		idx := c.rob.push()
		u := &c.robEntries[idx]
		*u = uop{
			seq:        c.seqCtr,
			pc:         f.pc,
			in:         f.in,
			kind:       kind,
			dst:        noReg,
			oldDst:     noReg,
			lqIdx:      -1,
			sqIdx:      -1,
			predTaken:  f.predTaken,
			predTarget: f.predTarget,
			hist:       f.hist,
		}

		srcs, nsrc := f.in.Sources()
		u.nsrc = nsrc
		for i := 0; i < nsrc; i++ {
			u.src[i] = c.renameMap[srcs[i]]
		}
		if f.in.HasDst() {
			u.oldDst = c.renameMap[f.in.Dst]
			u.dst = c.alloc()
			c.regReady[u.dst] = false
			c.renameMap[f.in.Dst] = u.dst
		}

		switch kind {
		case isa.KindNop, isa.KindHalt:
			u.executed = true
			u.propagated = true
			u.resolved = true
		case isa.KindJump:
			// Direct target, known at fetch: never speculative, nothing
			// to execute.
			u.executed = true
			u.propagated = true
			u.resolved = true
		case isa.KindALU:
			c.iq = append(c.iq, u)
		case isa.KindBranch:
			u.castsShadow = true
			c.shadows.Add(u.seq)
			c.ctrlShadows.Add(u.seq)
			c.noteShadowOpen(u)
			c.iq = append(c.iq, u)
		case isa.KindLoad:
			li := c.lq.push()
			u.lqIdx = li
			e := &c.lqEntries[li]
			*e = lqEntry{u: u, valid: true}
			if c.cfg.ExceptionShadows {
				u.castsShadow = true
				c.shadows.Add(u.seq)
				c.noteShadowOpen(u)
			}
			c.inflight[u.pc]++
			if n := uint64(c.inflight[u.pc]); n > c.Stats.MaxInflightPerPC {
				c.Stats.MaxInflightPerPC = n
			}
			e.occ = int(c.inflight[u.pc])
			e.commitBase = c.committedPC[u.pc]
			if c.cfg.AddressPrediction {
				if addr, ok := c.apPredict(u.pc, e.occ); ok {
					e.hadPrediction = true
					e.predicted = true
					e.predAddr = program.AlignAddr(addr)
					c.Stats.DoppPredictions++
				}
			}
			c.iq = append(c.iq, u)
		case isa.KindStore:
			si := c.sq.push()
			u.sqIdx = si
			c.sqEntries[si] = sqEntry{u: u, valid: true}
			// A store casts a data shadow until its address resolves.
			u.castsShadow = true
			c.shadows.Add(u.seq)
			c.noteShadowOpen(u)
			c.iq = append(c.iq, u)
		}
		n++
	}
	c.fetchBuf = c.fetchBuf[:copy(c.fetchBuf, c.fetchBuf[n:])]
}

func (c *Core) opLatency(op isa.Op) uint64 {
	switch op {
	case isa.Mul, isa.MulI:
		return c.cfg.MulLatency
	case isa.Div:
		return c.cfg.DivLatency
	default:
		return c.cfg.ALULatency
	}
}

// issue selects up to IssueWidth ready instructions from the IQ, oldest
// first, and starts their execution (ALU ops, branch outcome computation,
// and the AGU part of loads and stores).
func (c *Core) issue() {
	issued := 0
	out := c.iq[:0]
	for _, u := range c.iq {
		if issued >= c.cfg.IssueWidth || !c.ready(u) {
			out = append(out, u)
			continue
		}
		issued++
		u.issued = true
		switch u.kind {
		case isa.KindALU:
			a := c.regVal[u.src[0]]
			var b int64
			if u.nsrc > 1 {
				b = c.regVal[u.src[1]]
			}
			u.result = isa.EvalALU(u.in.Op, a, b, u.in.Imm)
			u.doneAt = c.cycle + c.opLatency(u.in.Op)
			u.inFlight = true
			c.inflightExec = append(c.inflightExec, u)
			if c.caps.TracksTaint {
				c.taints.SetCombined(u.dst, u.src[:u.nsrc]...)
				if c.tracing {
					if root := c.taints.Root(u.dst); root != 0 {
						c.emit(obs.Event{Kind: obs.KindTaintSet, Seq: u.seq, PC: u.pc, Aux: root})
					}
				}
			}
		case isa.KindBranch:
			a := c.regVal[u.src[0]]
			b := c.regVal[u.src[1]]
			u.actTaken = isa.BranchTaken(u.in.Op, a, b)
			if u.actTaken {
				u.actTarget = uint64(u.in.Imm)
			} else {
				u.actTarget = u.pc + 1
			}
			u.outcomeAt = c.cycle + c.cfg.ALULatency
			if c.caps.TracksTaint {
				u.brTaintRoot = c.taints.Combine(u.src[0], u.src[1])
			}
			c.pendingResolve = append(c.pendingResolve, u)
		case isa.KindLoad:
			e := &c.lqEntries[u.lqIdx]
			e.addr = program.AlignAddr(uint64(c.regVal[u.src[0]] + u.in.Imm))
			e.addrValidAt = c.cycle + c.cfg.AGULatency
			e.addrPending = true
			if c.caps.TracksTaint {
				e.addrTaintRoot = c.taints.Root(u.src[0])
			}
		case isa.KindStore:
			e := &c.sqEntries[u.sqIdx]
			e.addr = program.AlignAddr(uint64(c.regVal[u.src[0]] + u.in.Imm))
			e.addrValidAt = c.cycle + c.cfg.AGULatency
			e.addrPending = true
			if c.caps.TracksTaint {
				e.addrTaintRoot = c.taints.Root(u.src[0])
			}
		}
	}
	c.iq = out
}

// ready reports whether the uop's issue-time operands are available. Loads
// and stores only need their base register to start address generation;
// the store's data operand is captured separately by the store queue.
// Under STT a load is additionally a transmitter: it may not issue its
// memory access with a tainted address, but address *generation* is
// unobservable and allowed — the gate is applied at memory issue.
func (c *Core) ready(u *uop) bool {
	switch u.kind {
	case isa.KindLoad, isa.KindStore:
		return c.regReady[u.src[0]]
	default:
		for i := 0; i < u.nsrc; i++ {
			if !c.regReady[u.src[i]] {
				return false
			}
		}
		return true
	}
}

// writeback completes in-flight ALU executions, propagating results to
// dependents. ALU results always propagate immediately: NDA-P delays only
// speculatively *loaded* values; STT relies on taint; DoM delays only
// memory effects.
func (c *Core) writeback() {
	out := c.inflightExec[:0]
	for _, u := range c.inflightExec {
		if c.cycle < u.doneAt {
			out = append(out, u)
			continue
		}
		u.inFlight = false
		u.executed = true
		c.regVal[u.dst] = u.result
		c.regReady[u.dst] = true
		u.propagated = true
	}
	c.inflightExec = out
}

// resolveBranches applies branch outcomes. Resolution is the observable
// event (shadow lift plus squash on mispredict); the schemes gate it:
// STT delays resolution while the predicate is tainted, and DoM+AP
// resolves branches in order (only when non-speculative).
func (c *Core) resolveBranches() {
	for _, u := range c.pendingResolve {
		if u.resolved || c.cycle < u.outcomeAt {
			continue
		}
		u.outcomeReady = true
		if !c.canResolveBranch(u) {
			continue
		}
		u.resolved = true
		u.executed = true
		u.shadowResolved = true
		c.shadows.Resolve(u.seq)
		c.ctrlShadows.Resolve(u.seq)
		c.noteShadowClose(u)
		if u.actTarget != u.predTarget {
			c.Stats.BranchMispredicts++
			bit := uint64(0)
			if u.actTaken {
				bit = 1
			}
			newHist := u.hist
			if c.bpG != nil {
				newHist = ((u.hist << 1) | bit) & c.bpG.HistoryMask()
			}
			preSquashed := c.Stats.Squashed
			c.squashAfter(u.seq, u.actTarget, newHist)
			if c.tracing {
				c.emit(obs.Event{Kind: obs.KindBranchSquash, Seq: u.seq, PC: u.pc,
					Addr: u.actTarget, Aux: c.Stats.Squashed - preSquashed})
			}
			// The squash rebuilt pendingResolve in place; stop and let
			// the filter below drop this (now resolved) branch.
			break
		}
	}
	// Drop resolved entries.
	out := c.pendingResolve[:0]
	for _, u := range c.pendingResolve {
		if !u.resolved {
			out = append(out, u)
		}
	}
	c.pendingResolve = out
}

func (c *Core) canResolveBranch(u *uop) bool {
	switch {
	case c.caps.TracksTaint:
		return !c.taints.RootSpeculative(u.brTaintRoot)
	case c.inOrderBranches:
		return !c.speculative(u.seq)
	default:
		return true
	}
}
