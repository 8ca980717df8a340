package mem

// This file implements the rollback substrate for CleanupSpec-style undo
// schemes (secure.Cleanup): a perform-order journal of every reversible side
// effect a speculative access has on the hierarchy — fills (with the full
// prior contents of the victimised way, so evicted lines are reinstated),
// replacement-recency touches, dirty-bit transitions, per-class traffic
// counters, DRAM/write-back traffic, MSHR allocations, and MSHR-full
// rejections. The core tags speculative accesses with the issuing
// instruction's sequence number (AccessOptions.UndoSeq); a squash rolls the
// journal back past the squash boundary, and commit retires the journal
// prefix the frontier has made architectural.
//
// Two properties shape the design:
//
//   - The journal is in *perform* order, not sequence order (out-of-order
//     issue interleaves instructions arbitrarily). Rollback walks the log in
//     reverse, which is reverse mutation order — the correct stack
//     discipline for state restoration regardless of sequence numbers.
//     Retirement pops the front while the oldest record is covered by the
//     commit frontier; a younger-but-earlier-performed record blocks the pop
//     harmlessly until its own instruction commits or squashes.
//
//   - Each restoring record validates before applying: the way must still
//     hold the exact line (tag and recency stamp) the record created. A
//     surviving access that later overwrote the way invalidates the record,
//     in which case rollback conservatively leaves the current (committed)
//     state in place rather than clobbering it. Recency stamps are unique
//     (the cache clock advances once per stamp), so validation is exact.
//
// Irreversible observations are deferred instead of undone: the MSHR
// timeline digest fold for a speculative allocation is carried in the
// journal record and applied only when the record retires, so squashed
// allocations never reach the digest. The per-cycle cache clocks are
// deliberately *not* rolled back: clock values only feed LRU comparisons and
// the rank-ordered fingerprint, and a monotonic clock keeps recency stamps
// unique across rollback/refill cycles.
//
// The optional metrics registry (hierMetrics) is also not rolled back: its
// counters are operational telemetry, not part of the security oracle, so a
// Cleanup run's live metrics include transiently performed accesses.

// UndoOptions configures the rollback behaviour, including the planted
// weakenings of the mutation gauntlet (see secure.MutCleanupNoLRUUndo and
// secure.MutCleanupDropEvicted).
type UndoOptions struct {
	// SkipLRUUndo plants the incomplete-rollback bug where line *contents*
	// are restored but replacement state is not: recency touches are left in
	// place and reinstated victims keep the speculative fill's recency
	// stamp, so a squashed access still perturbs the LRU order.
	SkipLRUUndo bool
	// DropEvicted plants the bug where a squashed speculative fill is
	// invalidated but the victim it evicted is not reinstated, leaving a
	// secret-shaped hole in the set.
	DropEvicted bool
}

type undoKind uint8

const (
	// undoFill restores the full prior contents of a way that a speculative
	// insert overwrote (invalid, a victim line, or the same line's previous
	// recency/fill state).
	undoFill undoKind = iota
	// undoTouch restores a hit's replacement-recency update.
	undoTouch
	// undoDirty restores a dirty-bit transition (write hit or write-back
	// mark on a freshly inserted line).
	undoDirty
	// undoStats decrements one per-class access+hit/miss counter pair.
	undoStats
	// undoMSHR removes a speculative MSHR allocation; its timeline-digest
	// fold is deferred to retirement.
	undoMSHR
	// undoDRAM decrements the DRAM access counter.
	undoDRAM
	// undoWriteback decrements one level's write-back counter (and the DRAM
	// write counter when the victim rippled to memory).
	undoWriteback
	// undoReject decrements the MSHR-full rejection counter.
	undoReject
)

// undoRec is one journal entry. Field use varies by kind; cache-targeted
// records carry the cache pointer and way coordinates, hierarchy-level
// records leave them zero.
type undoRec struct {
	seq  uint64 // issuing instruction's sequence number (squash order)
	kind undoKind

	c        *Cache
	set, way int32

	// prev is, for undoFill, the complete prior contents of the way; for
	// undoTouch, prev.lastUse is the pre-touch recency; for undoDirty,
	// prev.dirty is the pre-transition bit.
	prev line
	// tag validates that the way still holds the line the record created
	// (the *new* line's tag for fills, the touched/dirtied line's tag
	// otherwise).
	tag uint64
	// stamp validates recency: the lastUse value the recorded operation
	// wrote. Unique per cache, so a later overwrite is always detected.
	stamp uint64

	// Stats payload.
	class Class
	hit   bool

	// Write-back payload: level index into Hierarchy.Writebacks, and
	// whether the ripple reached DRAM.
	level uint8
	dram  bool

	// MSHR payload: the allocation to remove on rollback and the deferred
	// noteMSHR fold arguments for retirement.
	now, lineAddr, doneAt uint64
	prefetch              bool
}

// undoJournal is the hierarchy's rollback buffer: a flat record slice with a
// retired-prefix head index, so retirement is O(1) amortised, and rollback
// and retirement both compact in place.
type undoJournal struct {
	opts UndoOptions
	recs []undoRec
	head int
}

func (j *undoJournal) add(r undoRec) { j.recs = append(j.recs, r) }

// empty reports whether every record has been retired or rolled back.
func (j *undoJournal) empty() bool { return j.head == len(j.recs) }

// pending reports the number of live (unretired) records.
func (j *undoJournal) pending() int { return len(j.recs) - j.head }

// retireUpTo pops records from the front while the oldest record's
// instruction is covered by the commit frontier, applying deferred MSHR
// timeline folds in perform order. Once the retired prefix outgrows the
// live records it is reclaimed by sliding the live records to the front:
// under steady speculation the journal never drains, so reclamation cannot
// wait for it to empty. Each slide copies fewer records than were retired
// since the last one, so retirement stays O(1) amortised and the slice
// stays within a small multiple of the peak number of live records.
func (j *undoJournal) retireUpTo(h *Hierarchy, frontier uint64) {
	for j.head < len(j.recs) && j.recs[j.head].seq <= frontier {
		r := &j.recs[j.head]
		if r.kind == undoMSHR {
			h.noteMSHR(r.now, r.lineAddr, r.doneAt, r.prefetch)
		}
		j.head++
	}
	if j.head > len(j.recs)/2 {
		n := copy(j.recs, j.recs[j.head:])
		j.recs = j.recs[:n]
		j.head = 0
	}
}

// rollbackAfter undoes, in reverse perform order, every record belonging to
// an instruction younger than the survivor, then compacts the journal.
func (j *undoJournal) rollbackAfter(h *Hierarchy, survivorSeq uint64) {
	for i := len(j.recs) - 1; i >= j.head; i-- {
		if j.recs[i].seq > survivorSeq {
			j.undo(h, &j.recs[i])
		}
	}
	w := j.head
	for i := j.head; i < len(j.recs); i++ {
		if j.recs[i].seq <= survivorSeq {
			j.recs[w] = j.recs[i]
			w++
		}
	}
	j.recs = j.recs[:w]
}

// undo reverses one record, validating that the state it describes is still
// in place (a surviving access may have legitimately overwritten it, in
// which case the record is skipped and the committed state wins).
func (j *undoJournal) undo(h *Hierarchy, r *undoRec) {
	switch r.kind {
	case undoFill:
		l := &r.c.sets[r.set][r.way]
		if !l.valid || l.tag != r.tag || l.lastUse != r.stamp {
			return // overwritten by a surviving fill; leave it
		}
		switch {
		case j.opts.DropEvicted && r.prev.valid && r.prev.tag != r.tag:
			// Planted weakening: erase the speculative line but do not
			// reinstate the victim it evicted.
			*l = line{}
		case j.opts.SkipLRUUndo && r.prev.valid:
			// Planted weakening: restore the line contents but keep the
			// speculative fill's recency stamp.
			stamp := l.lastUse
			*l = r.prev
			l.lastUse = stamp
		default:
			*l = r.prev
		}
	case undoTouch:
		if j.opts.SkipLRUUndo {
			return // planted weakening: recency updates are not rolled back
		}
		l := &r.c.sets[r.set][r.way]
		if l.valid && l.tag == r.tag && l.lastUse == r.stamp {
			l.lastUse = r.prev.lastUse
		}
	case undoDirty:
		l := &r.c.sets[r.set][r.way]
		if l.valid && l.tag == r.tag {
			l.dirty = r.prev.dirty
		}
	case undoStats:
		r.c.Accesses[r.class]--
		if r.hit {
			r.c.Hits[r.class]--
		} else {
			r.c.Misses[r.class]--
		}
	case undoMSHR:
		// Remove the allocation if its fill is still outstanding (an
		// already-expired entry left the file on its own). nextExpire may
		// be left pointing earlier than the new minimum, which only costs
		// one spurious (and state-preserving) expiry sweep.
		for i := range h.mshrs {
			m := &h.mshrs[i]
			if m.lineAddr == r.lineAddr && m.doneAt == r.doneAt && m.prefetch == r.prefetch {
				h.mshrs = append(h.mshrs[:i], h.mshrs[i+1:]...)
				break
			}
		}
	case undoDRAM:
		h.DRAMAccesses--
	case undoWriteback:
		h.Writebacks[r.level]--
		if r.dram {
			h.DRAMWrites--
		}
	case undoReject:
		h.RejectedMSHR--
	}
}

// EnableUndo attaches a rollback journal to the hierarchy: subsequent
// accesses carrying a non-zero AccessOptions.UndoSeq journal every side
// effect for squash-time rollback. Call once, before the first access.
func (h *Hierarchy) EnableUndo(opts UndoOptions) {
	h.undo = &undoJournal{opts: opts, recs: make([]undoRec, 0, 256)}
}

// UndoEnabled reports whether a rollback journal is attached.
func (h *Hierarchy) UndoEnabled() bool { return h.undo != nil }

// UndoPending reports the number of live (unretired, un-rolled-back)
// journal records; zero when no journal is attached. A quiescent machine
// must always report zero: every speculative access has either committed
// (retiring its records) or squashed (rolling them back).
func (h *Hierarchy) UndoPending() int {
	if h.undo == nil {
		return 0
	}
	return h.undo.pending()
}

// UndoCapacity reports the journal's allocated record capacity; zero when
// no journal is attached. Retirement reclaims the retired prefix, so the
// capacity tracks the peak number of live records, not the run length.
func (h *Hierarchy) UndoCapacity() int {
	if h.undo == nil {
		return 0
	}
	return cap(h.undo.recs)
}

// RollbackAfter undoes every journaled side effect of instructions younger
// than survivorSeq, in reverse perform order: speculative fills are erased,
// their victims reinstated, recency and dirty bits restored, and traffic
// counters and MSHR allocations revoked. No-op when no journal is attached.
func (h *Hierarchy) RollbackAfter(survivorSeq uint64) {
	if h.undo != nil {
		h.undo.rollbackAfter(h, survivorSeq)
	}
}

// RetireUpTo retires the journal prefix covered by the commit frontier:
// those side effects are now architectural, so their records are dropped
// and their deferred MSHR timeline folds applied in perform order. No-op
// when no journal is attached.
func (h *Hierarchy) RetireUpTo(frontier uint64) {
	if h.undo != nil {
		h.undo.retireUpTo(h, frontier)
	}
}
