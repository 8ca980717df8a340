package pipeline

// Observation trace capture: rolling digests of the address and control
// traces an attacker-observer sees, at two execution modes each. The
// committed (seq) traces fold only architecturally retired operations; the
// speculative (spec) traces fold everything the machine *performs* —
// wrong-path fetches and every cache-hierarchy access that changes state,
// including transient ones. Accesses the hierarchy refuses (MSHR-full
// rejections) and DoM delayed misses change nothing anywhere, and
// store-to-load forwarded values never reach the hierarchy, so none of them
// fold.
//
// Capture is off by default and costs one predictable branch per site when
// off; sim.Observe enables it for runs that request trace-visible clauses.

const (
	obsOffset = 1469598103934665603
	obsPrime  = 1099511628211
)

// obsMix folds one 64-bit quantity into the rolling FNV-style digest,
// byte-by-byte, matching the mixing discipline of the other fingerprints.
func obsMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= obsPrime
	}
	return h
}

// Tags distinguishing operation kinds within one trace digest, so e.g. a
// committed load and a committed store to the same address do not collide.
const (
	obsTagLoad  = 1
	obsTagStore = 2
)

// EnableObsTraces switches on observation trace capture. Call before the
// first Step; the digests seed to a non-zero offset so an enabled empty
// trace is distinguishable from a disabled one.
func (c *Core) EnableObsTraces() {
	c.obsOn = true
	c.obsAddrSeq = obsOffset
	c.obsCtrlSeq = obsOffset
	c.obsAddrSpec = obsOffset
	c.obsCtrlSpec = obsOffset
}

// ObsTraces returns the four rolling trace digests: committed address
// trace, committed control trace, transient-inclusive address trace, and
// transient-inclusive control (fetch PC) trace. All zero unless
// EnableObsTraces was called.
func (c *Core) ObsTraces() (addrSeq, ctrlSeq, addrSpec, ctrlSpec uint64) {
	return c.obsAddrSeq, c.obsCtrlSeq, c.obsAddrSpec, c.obsCtrlSpec
}

// obsCommitMem folds one committed memory operation (in commit order) into
// the committed address trace.
func (c *Core) obsCommitMem(tag, addr uint64) {
	c.obsAddrSeq = obsMix(obsMix(c.obsAddrSeq, tag), addr)
}

// obsCommitBranch folds one committed branch outcome into the committed
// control trace.
func (c *Core) obsCommitBranch(pc uint64, taken bool, target uint64) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	c.obsCtrlSeq = obsMix(obsMix(obsMix(c.obsCtrlSeq, pc), bit), target)
}

// obsSpecAccess folds one performed cache-hierarchy access (any class,
// committed or transient) into the speculative address trace.
func (c *Core) obsSpecAccess(class uint8, addr uint64) {
	c.obsAddrSpec = obsMix(obsMix(c.obsAddrSpec, uint64(class)), addr)
}

// specAcc is one buffered speculative-trace fold under an undo scheme: the
// access was performed, but whether it becomes observable is decided by its
// instruction's fate (commit folds it, squash drops it alongside the
// hierarchy rollback).
type specAcc struct {
	seq   uint64
	addr  uint64
	class uint8
}

// obsSpecAccessAt is obsSpecAccess for a load-path access under a possible
// undo scheme: with undo active the fold is buffered against the issuing
// instruction instead of applied immediately.
func (c *Core) obsSpecAccessAt(seq uint64, class uint8, addr uint64) {
	if c.caps.UndoesSpeculation {
		c.specLog = append(c.specLog, specAcc{seq: seq, addr: addr, class: class})
		return
	}
	c.obsSpecAccess(class, addr)
}

// drainSpecAt folds the buffered speculative accesses whose instructions
// the commit frontier has retired, in perform order. The buffer is in
// perform order, not sequence order, so the drain stops at the first entry
// belonging to a still-in-flight instruction — it folds on a later commit
// or is dropped by a squash.
func (c *Core) drainSpecAt(frontier uint64) {
	i := 0
	for i < len(c.specLog) && c.specLog[i].seq <= frontier {
		c.obsSpecAccess(c.specLog[i].class, c.specLog[i].addr)
		i++
	}
	if i > 0 {
		c.specLog = append(c.specLog[:0], c.specLog[i:]...)
	}
}

// dropSpecAfter discards buffered folds of squashed instructions.
func (c *Core) dropSpecAfter(survivorSeq uint64) {
	out := c.specLog[:0]
	for _, a := range c.specLog {
		if a.seq <= survivorSeq {
			out = append(out, a)
		}
	}
	c.specLog = out
}

// obsSpecFetch folds one fetched PC — right or wrong path — into the
// speculative control trace.
func (c *Core) obsSpecFetch(pc uint64) {
	c.obsCtrlSpec = obsMix(c.obsCtrlSpec, pc)
}
