package cache

import "testing"

// Synthetic differentials for the steady engine. The stencil
// differential suite exercises the engine through real kernels; these
// tests construct minimal streams for the gate's edge cases — phases the
// engine must refuse, and phases whose full-state snapshots are too
// costly for the default budget gate — and check that the steady result
// equals a raw replay exactly whatever the engine decides.

// emitPhase replays one synthetic phase into a sink: planes units,
// unit i's stream produced by unitRuns(i), each followed by its marker.
func emitPhase(sink RunSink, planes int, delta int64, unitRuns func(i int) []Run) {
	for i := 0; i < planes; i++ {
		sink.ReplayRuns(unitRuns(i))
		MarkPlane(sink, PlaneMark{Delta: delta, Index: i, Planes: planes})
	}
}

// readUnit builds a unit stream of `repeat` sequential read passes over
// `lines` cache lines starting at base (stride 8, the element size).
func readUnit(base int64, lines, repeat int) []Run {
	runs := make([]Run, repeat)
	for r := range runs {
		runs[r] = Run{Base: base, Stride: 8, Count: int32(lines * 4)} // 4 accesses per 32B line
	}
	return runs
}

// steadyMatchesRaw feeds the same stream to a steady-wrapped cache and
// to a plain one and requires identical statistics and final state.
func steadyMatchesRaw(t *testing.T, cfg Config, stream func(sink RunSink, c *Cache)) {
	t.Helper()
	c := MustNew(cfg)
	st := NewSteadyCache(c)
	stream(st, c)
	raw := MustNew(cfg)
	stream(raw, raw)
	if c.Stats() != raw.Stats() {
		t.Errorf("stats diverged: steady %+v raw %+v (%s)", c.Stats(), raw.Stats(), st.Diag())
	}
	if !c.StateEqual(raw) {
		t.Errorf("final cache state diverged from raw replay (%s)", st.Diag())
	}
}

// refusedSweep emits one synthetic "sweep": two 2-plane phases over
// disjoint regions. Two units are too few for plane-cycle detection, so
// the engine refuses both phases and every repeat replays.
func refusedSweep(sink RunSink) {
	emitPhase(sink, 2, 32, func(i int) []Run {
		return readUnit(int64(i)*32, 8, 4)
	})
	emitPhase(sink, 2, 32, func(i int) []Run {
		return readUnit(4096+int64(i)*32, 8, 4)
	})
}

// TestSteadyRefusedPhasesRepeated drives repeated identical sweeps of
// refused phases and checks that statistics and final state stay
// exactly equal to a raw replay. The schedule mirrors the bench harness:
// one warm-up sweep, a stats reset, then measured sweeps.
func TestSteadyRefusedPhasesRepeated(t *testing.T) {
	const sweeps = 6
	steadyMatchesRaw(t, Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}, func(sink RunSink, c *Cache) { // 32 sets
		refusedSweep(sink)
		c.ResetStats()
		for i := 0; i < sweeps; i++ {
			refusedSweep(sink)
		}
	})
}

// frontierPhase emits one long frontier-marching phase against a
// 512-set L1: each unit makes 512 accesses over 8 lines, then the next
// unit shifts forward one line. A full-state snapshot costs 512 slots,
// so the default budget gate (2x slots) refuses it at 512 accesses per
// unit.
func frontierPhase(sink RunSink, planes int) {
	emitPhase(sink, planes, 32, func(i int) []Run {
		return readUnit(int64(i)*32, 8, 16)
	})
}

// TestSteadyFootprintRescue checks the default budget gate end to end
// on a phase whose full-state snapshot is unaffordable: the result is
// bit-identical to a raw replay.
func TestSteadyFootprintRescue(t *testing.T) {
	const planes = 48
	steadyMatchesRaw(t, Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}, func(sink RunSink, _ *Cache) { // 512 sets
		frontierPhase(sink, planes)
	})
}
