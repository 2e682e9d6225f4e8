package bench

import (
	"reflect"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// TestMeasureMatchesEnginesOff pins the warm-then-measure helper: every
// experiment that runs a warm-up sweep and then measures goes through
// measure, and so through delta replay, and its results must equal full
// simulation with the steady and delta engines off. It also drives
// measure directly on a steady engine to prove the helper replays the
// measured sweep from the trace rather than walking it again.
func TestMeasureMatchesEnginesOff(t *testing.T) {
	on := smallOptions()
	off := on
	off.DisableSteady, off.DisableDelta = true, true

	if a, b := ProbeBoundary3D(on.L1, 4, on), ProbeBoundary3D(off.L1, 4, off); a != b {
		t.Errorf("boundary probe: engines on %+v, off %+v", a, b)
	}
	assocs := []int{1, 2, 4}
	if a, b := AssocSensitivity(stencil.Jacobi, 64, assocs, on), AssocSensitivity(stencil.Jacobi, 64, assocs, off); !reflect.DeepEqual(a, b) {
		t.Errorf("assoc sensitivity: engines on %v, off %v", a, b)
	}
	if a, b := CrossInterference(60, on), CrossInterference(60, off); a != b {
		t.Errorf("cross-interference: engines on %+v, off %+v", a, b)
	}
	ca, ba, ma := ExhaustiveTileSearch(stencil.Jacobi, 48, on)
	cb, bb, mb := ExhaustiveTileSearch(stencil.Jacobi, 48, off)
	if !reflect.DeepEqual(ca, cb) || ba != bb || ma != mb {
		t.Errorf("tile search: engines on %v (best %v, model %v), off %v (best %v, model %v)", ca, ba, ma, cb, bb, mb)
	}
	sizes := []int{60, 120}
	if a, b := TwoDSeries(sizes, on.L1, on), TwoDSeries(sizes, off.L1, off); !reflect.DeepEqual(a, b) {
		t.Errorf("2D series: engines on %v, off %v", a, b)
	}

	const n = 60
	w := stencil.NewTraceWorkload(stencil.Jacobi, n, on.K, on.Plan(stencil.Jacobi, core.MethodGcdPad, n))
	h := cacheHierarchy(on)
	sd := cache.NewSteady(h)
	on.measure(sd, h.ResetStats, 1, w.ReplayTrace)
	if d := sd.DeltaInfo(); d.Sweeps != 1 {
		t.Errorf("measure did not delta-replay its measured sweep: %s", d)
	}
	raw := cacheHierarchy(off)
	off.measure(raw, raw.ResetStats, 1, w.ReplayTrace)
	for l := 0; l < 2; l++ {
		if a, b := h.Level(l).Stats(), raw.Level(l).Stats(); a != b {
			t.Errorf("measure L%d: delta %+v, full %+v", l+1, a, b)
		}
	}
}
