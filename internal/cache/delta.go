package cache

import "fmt"

// Delta replay. A sweep point's trace decomposes into PlaneMark phases.
// While tracing (the warm sweep), the steady engine keeps a complete
// record of every phase it sees: per-unit anchors (run streams modulo
// translation), per-unit stats deltas, state pins, and the raw end
// state. The delta layer turns those records into a reusable *sweep
// trace*: it notes for every phase which history record reproduces it,
// and a later identical sweep then replays from the records — O(runs)
// anchor replays plus one state compare per phase — instead of walking
// the workload again. Reuse across points is not this layer's business:
// a plan-identical neighbor's statistics are identical, so the sweep
// engine copies them (warm sharing) instead.
//
// Exactness argument, in three steps:
//
//  1. A ref is only committed whole-phase: the phase ended by archiving
//     its complete record (endPhase → insertRecord, every unit
//     anchored), so the referenced record reproduces the phase's stream,
//     stats, and end state from the phase's entry state.
//  2. Replaying a later sweep: the workload's trace is a pure function
//     of its plan, so the sweep's stream is byte-identical to the traced
//     warm sweep's. For each phase the engine replays the record's
//     anchors unit by unit — this IS the phase's stream, so the live
//     state evolves exactly as full simulation would — until the live
//     state equals one of the record's pins (raw order-normalized
//     equality). From the pin on, the remainder is the recorded
//     remainder: stats deltas are summed and the recorded end state
//     restored.
//  3. Chaining: once one phase of the replay has committed via a pin
//     (or a full replay landed exactly on the record's end state), the
//     live state equals the record's end state — which is, by step 1,
//     the state the traced sweep entered its *next* phase with. Every
//     subsequent phase therefore starts from the recorded entry state
//     and commits with zero replay. The fixed-point corollary: if the
//     first delta-replayed sweep pinned anywhere, its end state equals
//     the traced sweep's end state, so the next sweep starts from the
//     exact state the previous one did and the whole sweep commits via
//     the instant-repeat cache with a single state compare.
//
// Any validation failure — a record slot rewritten since tracing (gen
// mismatch), a recycled anchor table, a pin that never matches and an
// end state that differs — abandons the delta replay before ANY
// mutation, and the caller falls back to full simulation. Degraded or
// partial reuse never happens: the replay is all-or-nothing per sweep.

// deltaRef is one phase of the traced sweep: the history slot that
// reproduces it and the slot's content generation at note time, plus
// the phase shape for validation.
type deltaRef struct {
	slot   int
	gen    uint64
	delta  int64
	planes int
	level  int
}

// deltaState is the engine's delta layer (a field of Steady).
type deltaState struct {
	tracing bool
	ok      bool
	starts  int // phases begun while tracing
	refs    []deltaRef
	traced  bool // a complete trace is available

	// Instant-repeat cache: the entry encode, summed stats, and raw end
	// state of the last fully delta-replayed sweep. A sweep starting
	// from the same state commits with one compare.
	repOK    bool
	repEnc   [][]int64
	repTot   []Stats
	repTags  [][]int64
	repDirty [][]bool
	repStamp [][]uint64

	diag DeltaDiag
}

// DeltaDiag counts what the delta layer did for one engine.
type DeltaDiag struct {
	Traced bool // a complete sweep trace was captured

	Sweeps          uint64 // sweeps completed by delta replay
	Instant         uint64 // of those, via the instant-repeat cache
	PhasesCommitted uint64 // phases committed from a record
	PhasesChained   uint64 // of those, with zero replay (chained entry)
	PhasesReplayed  uint64 // phases replayed in full (no pin matched)
	UnitsReplayed   uint64 // units replayed from anchors before a pin hit
	UnitsSkipped    uint64 // units committed without replay
	PinCompares     uint64 // state encodes+compares spent hunting pins
	Fallbacks       uint64 // ReplayDeltaSweep refusals (stale refs etc.)
}

// String renders the counters compactly for -v diagnostics.
func (d DeltaDiag) String() string {
	return fmt.Sprintf("traced=%v sweeps=%d(instant=%d) phases[commit=%d chain=%d replay=%d] units[replay=%d skip=%d] pincmp=%d fallback=%d",
		d.Traced, d.Sweeps, d.Instant, d.PhasesCommitted,
		d.PhasesChained, d.PhasesReplayed, d.UnitsReplayed, d.UnitsSkipped,
		d.PinCompares, d.Fallbacks)
}

// DeltaInfo returns the delta-layer counters.
func (s *Steady) DeltaInfo() DeltaDiag {
	d := s.dl.diag
	d.Traced = s.dl.traced
	return d
}

// DeltaTraceBegin arms trace capture: the next sweep fed through the
// engine (normally the warm sweep) is traced phase by phase. The engine
// records phases only while tracing, and then records every phase —
// budget-refused, not viable for detection, and pin-less ones included —
// so the trace can be complete.
func (s *Steady) DeltaTraceBegin() {
	s.dl.tracing = true
	s.dl.ok = true
	s.dl.starts = 0
	s.dl.refs = s.dl.refs[:0]
	s.dl.traced = false
	s.dl.repOK = false
}

// DeltaTraceEnd disarms capture and reports whether a complete trace
// was obtained: the engine must be idle (no phase in flight), and every
// phase begun while tracing must have committed a ref. Phases that
// ended without archiving (live-mode abort, over-long units) leave
// starts > len(refs) and fail the reconciliation.
func (s *Steady) DeltaTraceEnd() bool {
	d := &s.dl
	d.tracing = false
	d.traced = d.ok && s.mode == steadyIdle &&
		d.starts > 0 && d.starts == len(d.refs)
	d.diag.Traced = d.traced
	return d.traced
}

// deltaNote records that the phase just ended is reproduced by history
// slot v. Called from endPhase, after insertRecord.
func (s *Steady) deltaNote(v int) {
	d := &s.dl
	if !d.tracing || !d.ok {
		return
	}
	if v < 0 || v >= len(s.hist) {
		d.ok = false
		return
	}
	r := &s.hist[v]
	d.refs = append(d.refs, deltaRef{
		slot:   v,
		gen:    r.gen,
		delta:  r.delta,
		planes: r.planes,
		level:  r.level,
	})
}

// deltaRefsValid checks every ref against the live history before any
// mutation: the slot must still hold the generation the trace saw, with
// a complete anchor/delta record. All-or-nothing: a single stale ref
// refuses the whole sweep.
func (s *Steady) deltaRefsValid() bool {
	for _, ref := range s.dl.refs {
		if ref.slot < 0 || ref.slot >= len(s.hist) {
			return false
		}
		r := &s.hist[ref.slot]
		if !r.valid || r.gen != ref.gen || r.delta != ref.delta ||
			r.planes != ref.planes || r.level != ref.level ||
			len(r.anchors) != r.planes || len(r.deltas) != r.planes {
			return false
		}
		for _, a := range r.anchors {
			if a < 0 || a >= s.nAnchors {
				return false
			}
		}
	}
	return true
}

// deltaPinBudget caps the state encodes spent hunting a pin within one
// sweep replay: after this many consecutive misses the replay stops
// comparing and relies on full phase replays plus end-state chaining.
// It resets on the first hit (chaining makes later compares free).
const deltaPinBudget = 64

// ReplayDeltaSweep reproduces one whole sweep from the traced records,
// or returns false having changed nothing (the caller must then replay
// the sweep through the workload as usual). Callable only between
// sweeps (engine idle) after a successful DeltaTraceEnd.
func (s *Steady) ReplayDeltaSweep() bool {
	d := &s.dl
	if !d.traced || s.mode != steadyIdle {
		return false
	}
	if !s.deltaRefsValid() {
		d.diag.Fallbacks++
		return false
	}
	if d.repOK {
		s.encodeCurrent()
		d.diag.PinCompares++
		if encEq(s.encScratch, d.repEnc) {
			for li, c := range s.levels {
				c.stats = addStats(c.stats, d.repTot[li])
				copy(c.tags, d.repTags[li])
				copy(c.dirty, d.repDirty[li])
				if c.stamp != nil {
					copy(c.stamp, d.repStamp[li])
				}
			}
			d.diag.Sweeps++
			d.diag.Instant++
			for _, ref := range d.refs {
				s.skipped += uint64(ref.planes)
			}
			return true
		}
	}
	// Capture the entry state and stats so a full replay can populate
	// the instant-repeat cache (and so the accounting below is relative).
	s.encodeCurrent()
	if d.repEnc == nil {
		d.repEnc = make([][]int64, len(s.levels))
	}
	for li := range s.levels {
		d.repEnc[li] = append(d.repEnc[li][:0], s.encScratch[li]...)
	}
	if d.repTot == nil {
		d.repTot = make([]Stats, len(s.levels))
	}
	for li, c := range s.levels {
		d.repTot[li] = c.stats
	}
	d.repOK = false

	chained := false
	budget := deltaPinBudget
	for _, ref := range d.refs {
		r := &s.hist[ref.slot]
		if chained {
			// The live state equals the previous record's end state,
			// which is the state the traced sweep entered this phase
			// with: commit everything with zero replay.
			s.deltaCommitFrom(r, -1)
			d.diag.PhasesCommitted++
			d.diag.PhasesChained++
			d.diag.UnitsSkipped += uint64(r.planes)
			continue
		}
		hit := -1
		for u := 0; u < r.planes; u++ {
			a := &s.anchors[r.anchors[u]]
			s.replayShifted(a.runs, int64(u-a.unit)*r.delta)
			d.diag.UnitsReplayed++
			if u >= r.planes-1 {
				break
			}
			if pin := phasePinAt(r, u); pin != nil && budget > 0 {
				s.encodeCurrent()
				d.diag.PinCompares++
				if encEq(s.encScratch, pin.data) {
					hit = u
					budget = deltaPinBudget
					break
				}
				budget--
			}
		}
		if hit >= 0 {
			s.deltaCommitFrom(r, hit)
			chained = true
			d.diag.PhasesCommitted++
			d.diag.UnitsSkipped += uint64(r.planes - 1 - hit)
		} else {
			// The phase replayed in full; if it happened to land exactly
			// on the record's end state, later phases chain anyway.
			d.diag.PhasesReplayed++
			chained = s.deltaEndStateEq(r)
		}
	}
	// Account the whole sweep as skipped walker units (the anchors were
	// replayed by the engine, not the walker).
	for _, ref := range d.refs {
		s.skipped += uint64(ref.planes)
	}
	d.diag.Sweeps++
	if chained {
		// Fixed point: the sweep ended in the recorded end state, which
		// is also the state it started from on the traced run's repeat —
		// so the entry capture above plus the totals below make the next
		// identical sweep a single compare.
		for li, c := range s.levels {
			d.repTot[li] = subStats(c.stats, d.repTot[li])
		}
		if d.repTags == nil {
			d.repTags = make([][]int64, len(s.levels))
			d.repDirty = make([][]bool, len(s.levels))
			d.repStamp = make([][]uint64, len(s.levels))
		}
		for li, c := range s.levels {
			d.repTags[li] = append(d.repTags[li][:0], c.tags...)
			d.repDirty[li] = append(d.repDirty[li][:0], c.dirty...)
			d.repStamp[li] = d.repStamp[li][:0]
			if c.stamp != nil {
				d.repStamp[li] = append(d.repStamp[li], c.stamp...)
			}
		}
		d.repOK = true
	}
	return true
}

// phasePinAt returns record r's pin at unit u, if any.
func phasePinAt(r *steadyPhase, u int) *steadyPin {
	for i := range r.pins {
		if r.pins[i].unit == u {
			return &r.pins[i]
		}
	}
	return nil
}

// deltaCommitFrom adds the recorded per-unit stats deltas of units
// from+1..planes-1 (all units when from < 0) and restores the record's
// raw end state. No live verification: the stream identity is
// established by the workload's determinism, enforced differentially in
// tests.
func (s *Steady) deltaCommitFrom(r *steadyPhase, from int) {
	for u := from + 1; u < r.planes; u++ {
		for li, dd := range r.deltas[u] {
			c := s.levels[li]
			c.stats = addStats(c.stats, dd)
		}
	}
	for li, c := range s.levels {
		copy(c.tags, r.endTags[li])
		copy(c.dirty, r.endDirty[li])
		if c.stamp != nil && len(r.endStamp[li]) == len(c.stamp) {
			copy(c.stamp, r.endStamp[li])
		}
	}
}

// deltaEndStateEq reports whether the live state equals record r's end
// state. Only direct-mapped levels compare cheaply and exactly by raw
// (tag, dirty); any set-associative level makes this conservatively
// false (raw stamps are not order-normalized).
func (s *Steady) deltaEndStateEq(r *steadyPhase) bool {
	for li, c := range s.levels {
		if c.assoc != 1 {
			return false
		}
		et, ed := r.endTags[li], r.endDirty[li]
		if len(et) != len(c.tags) {
			return false
		}
		for i := range c.tags {
			if c.tags[i] != et[i] || c.dirty[i] != ed[i] {
				return false
			}
		}
	}
	return true
}

// levelSink stamps a fixed Level onto every PlaneMark passing through
// it, so multi-grid walkers (multigrid V-cycles) can distinguish
// identically-shaped phases on different grid levels.
type levelSink struct {
	RunSink
	level int
}

func (ls levelSink) PlaneMark(m PlaneMark) {
	m.Level = ls.level
	MarkPlane(ls.RunSink, m)
}

// WithLevel wraps a sink so every marker emitted through the wrapper
// carries the given phase level. Wrapping a sink that does not
// understand markers is harmless (markers stay dropped).
func WithLevel(sink RunSink, level int) RunSink {
	return levelSink{sink, level}
}

var (
	_ RunSink   = levelSink{}
	_ PlaneSink = levelSink{}
)
