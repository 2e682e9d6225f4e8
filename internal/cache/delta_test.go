package cache

import (
	"math/rand"
	"testing"
)

// Differential tests for the delta-replay layer: a sweep replayed
// from the traced phase records must be indistinguishable — statistics
// and final cache state — from replaying the walker, for native traces
// and every fallback path.

// deltaPhase replays one marked phase: planes units of two lockstep
// runs, consecutive units translating by delta bytes, tagged level.
func deltaPhase(sink RunSink, base int64, planes int, delta int64, level int) {
	s := WithLevel(sink, level)
	for k := 0; k < planes; k++ {
		o := base + int64(k)*delta
		runs := []Run{
			{Base: o, Stride: 8, Count: 96},
			{Base: o + 1<<21, Stride: 8, Count: 96, Store: true, Cont: true},
		}
		s.ReplayRuns(runs)
		MarkPlane(s, PlaneMark{Delta: delta, Index: k, Planes: planes})
	}
}

// deltaSweep is the synthetic multi-phase sweep the delta tests trace:
// a long translating phase, two same-shape phases distinguished only by
// level, a short phase, and a single-unit fill-like phase — the shapes
// a V-cycle's trace produces.
func deltaSweep(sink RunSink) {
	deltaPhase(sink, 0, 12, 4096, 0)
	deltaPhase(sink, 1<<22, 8, 2048, 1)
	deltaPhase(sink, 1<<22+1<<18, 8, 2048, 2)
	deltaPhase(sink, 1<<23, 4, 1024, 0)
	deltaPhase(sink, 1<<24, 1, 0, 0)
}

// newDeltaPair returns a raw and a steady-wrapped hierarchy on the
// paper's geometry.
func newDeltaPair() (*Hierarchy, *Hierarchy, *Steady) {
	raw := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
	st := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
	return raw, st, NewSteady(st)
}

func assertDeltaEqual(t *testing.T, what string, raw, st *Hierarchy) {
	t.Helper()
	for l := 0; l < 2; l++ {
		if raw.Level(l).Stats() != st.Level(l).Stats() {
			t.Errorf("%s: L%d stats diverge:\n  delta %+v\n  raw   %+v",
				what, l+1, st.Level(l).Stats(), raw.Level(l).Stats())
		}
		if !raw.Level(l).StateEqual(st.Level(l)) {
			t.Errorf("%s: L%d final cache state diverges", what, l+1)
		}
	}
}

// TestDeltaReplayDifferential: warm sweep traced, measured sweeps
// replayed from the records; everything must match a raw replay.
func TestDeltaReplayDifferential(t *testing.T) {
	raw, st, sd := newDeltaPair()
	sd.DeltaTraceBegin()
	deltaSweep(sd)
	if !sd.DeltaTraceEnd() {
		t.Fatalf("warm sweep did not produce a complete trace: %s", sd.DeltaInfo())
	}
	deltaSweep(raw)
	raw.ResetStats()
	st.ResetStats()
	for s := 0; s < 4; s++ {
		deltaSweep(raw)
		if !sd.ReplayDeltaSweep() {
			t.Fatalf("sweep %d: delta replay refused: %s", s, sd.DeltaInfo())
		}
	}
	assertDeltaEqual(t, "traced replay", raw, st)
	d := sd.DeltaInfo()
	if d.Sweeps != 4 {
		t.Errorf("delta replay completed %d sweeps, want 4: %s", d.Sweeps, d)
	}
	if d.Instant == 0 {
		t.Errorf("fixed point never reached the instant-repeat cache: %s", d)
	}
}

// TestDeltaStaleRefsFallBack: a record slot rewritten after the trace
// noted it must fail validation — the replay refuses without mutating
// state and full simulation stays exact. Both rewrites happen inside
// the traced sweep itself.
func TestDeltaStaleRefsFallBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep func(RunSink)
	}{
		// More distinct phase shapes than the history holds: the last
		// phases evict (LRU) the records the first phases noted.
		{"evicted", func(sink RunSink) {
			deltaSweep(sink)
			for i := 0; i < steadyHistory; i++ {
				deltaPhase(sink, 1<<26+int64(i)<<20, 3, int64(8+8*i), 0)
			}
		}},
		// A repeat of the first phase's shape rewrites its slot in place,
		// so only the slot generation tells the first ref is stale.
		{"rewritten", func(sink RunSink) {
			deltaSweep(sink)
			deltaPhase(sink, 0, 12, 4096, 0)
		}},
	} {
		raw, st, sd := newDeltaPair()
		sd.DeltaTraceBegin()
		tc.sweep(sd)
		if !sd.DeltaTraceEnd() {
			t.Fatalf("%s: trace incomplete", tc.name)
		}
		tc.sweep(raw)
		raw.ResetStats()
		st.ResetStats()
		for s := 0; s < 2; s++ {
			tc.sweep(raw)
			if sd.ReplayDeltaSweep() {
				t.Fatalf("%s: stale refs accepted", tc.name)
			}
			tc.sweep(sd)
		}
		assertDeltaEqual(t, tc.name+" stale-ref fallback", raw, st)
		if d := sd.DeltaInfo(); d.Fallbacks == 0 {
			t.Errorf("%s: no fallback counted: %s", tc.name, d)
		}
	}
}

// TestDeltaRandomizedStreams: randomized phase geometries (planes,
// deltas, run shapes, levels) traced and replayed against raw. Seeded
// for reproducibility.
func TestDeltaRandomizedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		nPhases := 1 + rng.Intn(5)
		type ph struct {
			base   int64
			planes int
			delta  int64
			level  int
			count  int32
			nRuns  int
		}
		phases := make([]ph, nPhases)
		for i := range phases {
			phases[i] = ph{
				base:   int64(i)*(1<<22) + int64(rng.Intn(4096))*8,
				planes: 1 + rng.Intn(14),
				delta:  int64(1+rng.Intn(512)) * 8,
				level:  rng.Intn(3),
				count:  int32(1 + rng.Intn(200)),
				nRuns:  1 + rng.Intn(4),
			}
		}
		sweep := func(sink RunSink) {
			for _, p := range phases {
				s := WithLevel(sink, p.level)
				for k := 0; k < p.planes; k++ {
					o := p.base + int64(k)*p.delta
					var runs []Run
					for r := 0; r < p.nRuns; r++ {
						runs = append(runs, Run{
							Base:   o + int64(r)<<19,
							Stride: 8,
							Count:  p.count,
							Store:  r == p.nRuns-1,
							Cont:   r > 0,
						})
					}
					s.ReplayRuns(runs)
					MarkPlane(s, PlaneMark{Delta: p.delta, Index: k, Planes: p.planes})
				}
			}
		}
		raw, st, sd := newDeltaPair()
		sd.DeltaTraceBegin()
		sweep(sd)
		traced := sd.DeltaTraceEnd()
		sweep(raw)
		raw.ResetStats()
		st.ResetStats()
		for s := 0; s < 3; s++ {
			sweep(raw)
			if !traced || !sd.ReplayDeltaSweep() {
				sweep(sd)
			}
		}
		assertDeltaEqual(t, "randomized trial", raw, st)
		if t.Failed() {
			t.Fatalf("trial %d phases: %+v (traced=%v, %s)", trial, phases, traced, sd.DeltaInfo())
		}
	}
}
