package cache

import "fmt"

// Cross-point delta simulation. A sweep point's trace decomposes into
// PlaneMark phases, and the steady engine already keeps complete records
// of the phases it sees: per-unit anchors (run streams modulo
// translation), per-unit stats deltas, state pins, and the raw end
// state. The delta layer turns those records into a reusable *sweep
// trace*: while tracing (the warm sweep), it notes for every phase which
// history record reproduces it; a later identical sweep then replays
// from the records — O(runs) anchor replays plus one state compare per
// phase — instead of walking the workload again, and a *neighboring*
// point whose plan is identical can be seeded with the donor's records
// and skip straight to echoing its own warm sweep.
//
// Exactness argument, in three steps:
//
//  1. A ref is only committed whole-phase: either the phase ended by
//     archiving its complete record (endPhase → insertRecord, every unit
//     anchored) or it ended by echoing a record (echoCommit), which is
//     already verified to be an exact repeat. Either way the referenced
//     record reproduces the phase's stream, stats, and end state from
//     the phase's entry state.
//  2. Replaying a later sweep: the workload's trace is a pure function
//     of its plan, so the sweep's stream is byte-identical to the traced
//     warm sweep's. For each phase the engine replays the record's
//     anchors unit by unit — this IS the phase's stream, so the live
//     state evolves exactly as full simulation would — until the live
//     state equals one of the record's pins (raw order-normalized
//     equality, the phase-echo entry check). From the pin on, the
//     remainder is the recorded remainder: stats deltas are summed and
//     the recorded end state restored.
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
	Seeded bool // the engine was seeded from a donor's records

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
	return fmt.Sprintf("traced=%v seeded=%v sweeps=%d(instant=%d) phases[commit=%d chain=%d replay=%d] units[replay=%d skip=%d] pincmp=%d fallback=%d",
		d.Traced, d.Seeded, d.Sweeps, d.Instant, d.PhasesCommitted,
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
// engine (normally the warm sweep) is traced phase by phase. Tracing
// forces the engine to record even budget-refused and pin-less phases,
// so the trace can be complete for streams whose phases the steady
// machinery would otherwise replay without recording.
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
// slot v. Called from endPhase (after insertRecord) and echoCommit.
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
// raw end state — the phase-echo commit, driven by the replay loop
// instead of live verification (the stream identity is established by
// the workload's determinism, enforced differentially in tests).
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

// DeltaDonor is an exported, self-contained copy of a traced engine's
// phase records, consumable by SeedDelta on a fresh engine simulating a
// plan-identical point. It is immutable after export and safe to share
// across goroutines (SeedDelta deep-copies).
type DeltaDonor struct {
	sets  []int
	assoc []int
	shift []uint
	cfgs  []Config
	recs  []donorRec
	order []int // ref sequence → recs index
	bytes int64
}

// donorRec is one deep-copied phase record plus the anchors it needs,
// with each anchor's original unit preserved (offsets depend on it).
type donorRec struct {
	delta    int64
	planes   int
	level    int
	anchors  []donorAnchor
	deltas   [][]Stats
	pins     []steadyPin
	endTags  [][]int64
	endDirty [][]bool
	endStamp [][]uint64
}

type donorAnchor struct {
	unit int
	runs []Run
}

// maxDonorBytes caps an exported donor's approximate footprint; points
// whose records exceed it simply do not donate.
const maxDonorBytes = 128 << 20

// ExportDelta deep-copies the traced sweep's records into a donor, or
// returns nil when no complete trace exists or the copy would be too
// large.
func (s *Steady) ExportDelta() *DeltaDonor {
	d := &s.dl
	if !d.traced || !s.deltaRefsValid() {
		return nil
	}
	dn := &DeltaDonor{}
	for _, c := range s.levels {
		dn.sets = append(dn.sets, c.sets)
		dn.assoc = append(dn.assoc, c.assoc)
		dn.shift = append(dn.shift, c.lineShift)
		dn.cfgs = append(dn.cfgs, c.cfg)
	}
	slotRec := make(map[int]int) // hist slot → recs index
	for _, ref := range d.refs {
		ri, ok := slotRec[ref.slot]
		if !ok {
			r := &s.hist[ref.slot]
			ri = len(dn.recs)
			slotRec[ref.slot] = ri
			dr := donorRec{delta: r.delta, planes: r.planes, level: r.level}
			for _, ai := range r.anchors {
				a := &s.anchors[ai]
				dr.anchors = append(dr.anchors, donorAnchor{
					unit: a.unit,
					runs: append([]Run(nil), a.runs...),
				})
				dn.bytes += int64(len(a.runs)) * 32
			}
			for _, ds := range r.deltas {
				dr.deltas = append(dr.deltas, append([]Stats(nil), ds...))
				dn.bytes += int64(len(ds)) * 48
			}
			for _, p := range r.pins {
				cp := steadyPin{unit: p.unit}
				for _, lv := range p.data {
					cp.data = append(cp.data, append([]int64(nil), lv...))
					dn.bytes += int64(len(lv)) * 8
				}
				dr.pins = append(dr.pins, cp)
			}
			for li := range s.levels {
				dr.endTags = append(dr.endTags, append([]int64(nil), r.endTags[li]...))
				dr.endDirty = append(dr.endDirty, append([]bool(nil), r.endDirty[li]...))
				dr.endStamp = append(dr.endStamp, append([]uint64(nil), r.endStamp[li]...))
				dn.bytes += int64(len(r.endTags[li])) * 17
			}
			dn.recs = append(dn.recs, dr)
		}
		dn.order = append(dn.order, ri)
	}
	if dn.bytes > maxDonorBytes || len(dn.recs) > steadyHistory {
		return nil
	}
	return dn
}

// SeedDelta installs a donor's records into a fresh engine's phase
// history and anchor table, so the engine's own warm sweep — which is
// byte-identical to the donor's, plans being identical — echoes from
// the first matching pin instead of simulating, and its own trace
// capture re-references the seeded slots. Returns false (and installs
// nothing) unless the engine is untouched and geometry-compatible.
// Seeding never risks exactness: seeded records are matched by the same
// pin/verification machinery as native ones, and divergence simply
// re-records over them.
func (s *Steady) SeedDelta(dn *DeltaDonor) bool {
	if dn == nil || len(dn.recs) == 0 || len(dn.recs) > steadyHistory {
		return false
	}
	if s.mode != steadyIdle || s.nAnchors != 0 || s.histSeq != 0 {
		return false
	}
	if len(dn.sets) != len(s.levels) {
		return false
	}
	nAnchors := 0
	for li, c := range s.levels {
		if dn.sets[li] != c.sets || dn.assoc[li] != c.assoc ||
			dn.shift[li] != c.lineShift || dn.cfgs[li] != c.cfg {
			return false
		}
	}
	for _, dr := range dn.recs {
		nAnchors += len(dr.anchors)
	}
	if nAnchors > maxSteadyAnchors-8 {
		return false
	}
	if s.hist == nil {
		s.hist = make([]steadyPhase, steadyHistory)
	}
	for i, dr := range dn.recs {
		r := &s.hist[i]
		s.histSeq++
		r.valid, r.seq, r.gen = true, s.histSeq, r.gen+1
		r.delta, r.planes, r.level = dr.delta, dr.planes, dr.level
		r.anchors = r.anchors[:0]
		for _, a := range dr.anchors {
			if s.nAnchors == len(s.anchors) {
				s.anchors = append(s.anchors, steadyAnchor{})
			}
			s.anchors[s.nAnchors].unit = a.unit
			s.anchors[s.nAnchors].runs = append(s.anchors[s.nAnchors].runs[:0], a.runs...)
			r.anchors = append(r.anchors, s.nAnchors)
			s.nAnchors++
		}
		r.deltas = r.deltas[:0]
		for _, ds := range dr.deltas {
			r.deltas = append(r.deltas, append([]Stats(nil), ds...))
		}
		r.pins = r.pins[:0]
		for _, p := range dr.pins {
			cp := steadyPin{unit: p.unit}
			for _, lv := range p.data {
				cp.data = append(cp.data, append([]int64(nil), lv...))
			}
			r.pins = append(r.pins, cp)
		}
		if r.endTags == nil {
			r.endTags = make([][]int64, len(s.levels))
			r.endDirty = make([][]bool, len(s.levels))
			r.endStamp = make([][]uint64, len(s.levels))
		}
		for li := range s.levels {
			r.endTags[li] = append(r.endTags[li][:0], dr.endTags[li]...)
			r.endDirty[li] = append(r.endDirty[li][:0], dr.endDirty[li]...)
			r.endStamp[li] = append(r.endStamp[li][:0], dr.endStamp[li]...)
		}
	}
	s.dl.diag.Seeded = true
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
