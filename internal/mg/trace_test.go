package mg

import (
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
)

func TestOperatorTraceCounts(t *testing.T) {
	mc, mf := 6, 10
	coarse := grid.New3D(mc, mc, mc)
	fine := grid.New3D(mf, mf, mf)

	var mem cache.NullMemory
	rprj3Trace(coarse, fine, &mem)
	pts := uint64((mc - 2) * (mc - 2) * (mc - 2))
	if mem.LoadCount != pts*27 || mem.StoreCount != pts {
		t.Errorf("rprj3 trace: %d loads, %d stores; want %d, %d", mem.LoadCount, mem.StoreCount, pts*27, pts)
	}

	mem = cache.NullMemory{}
	interpTrace(fine, coarse, &mem)
	cells := uint64((mc - 1) * (mc - 1) * (mc - 1))
	if mem.LoadCount != cells*16 || mem.StoreCount != cells*8 {
		t.Errorf("interp trace: %d loads, %d stores; want %d, %d", mem.LoadCount, mem.StoreCount, cells*16, cells*8)
	}

	mem = cache.NullMemory{}
	u := grid.New3D(mf, mf, mf)
	r := grid.New3D(mf, mf, mf)
	psinvTrace(u, r, &mem, 0, 0, false)
	fpts := uint64((mf - 2) * (mf - 2) * (mf - 2))
	if mem.LoadCount != fpts*28 || mem.StoreCount != fpts {
		t.Errorf("psinv trace: %d loads, %d stores; want %d, %d", mem.LoadCount, mem.StoreCount, fpts*28, fpts)
	}

	// The tiled psinv trace is a permutation: same counts.
	var tiledMem cache.NullMemory
	psinvTrace(u, r, &tiledMem, 3, 4, true)
	if tiledMem.LoadCount != mem.LoadCount || tiledMem.StoreCount != mem.StoreCount {
		t.Errorf("tiled psinv trace differs: %d/%d vs %d/%d",
			tiledMem.LoadCount, tiledMem.StoreCount, mem.LoadCount, mem.StoreCount)
	}

	mem = cache.NullMemory{}
	fillTrace(u, &mem)
	if mem.StoreCount != uint64(u.Elems()) || mem.LoadCount != 0 {
		t.Errorf("fill trace: %d stores, want %d", mem.StoreCount, u.Elems())
	}
}

func TestArenaLayoutDisjoint(t *testing.T) {
	s := New(Params{LM: 4})
	type span struct{ lo, hi int64 }
	var spans []span
	add := func(g *grid.Grid3D) {
		spans = append(spans, span{g.Base(), g.Base() + int64(g.Elems())})
	}
	for l := 1; l <= 4; l++ {
		add(s.u[l])
		add(s.r[l])
	}
	add(s.v)
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("grids %d and %d overlap: %+v %+v", i, j, spans[i], spans[j])
			}
		}
	}
}

func TestTraceVCycleCountsMatchTransform(t *testing.T) {
	// Tiling only reorders: the tiled V-cycle's access counts equal the
	// original's.
	const lm = 4
	fm := (1 << lm) + 2
	plan := core.Select(core.MethodGcdPad, 256, fm, fm, core.Resid27pt())
	var a, b cache.NullMemory
	New(Params{LM: lm}).TraceVCycle(&a)
	New(Params{LM: lm, Plan: plan}).TraceVCycle(&b)
	if a.LoadCount != b.LoadCount || a.StoreCount != b.StoreCount {
		t.Errorf("tiled V-cycle counts %d/%d differ from orig %d/%d",
			b.LoadCount, b.StoreCount, a.LoadCount, a.StoreCount)
	}
	if a.LoadCount == 0 {
		t.Error("empty trace")
	}
}

// TestSteadyMultigridLevels is the differential for the level-tagged
// phase markers: three V-cycles replayed through the steady engine must
// produce bit-identical statistics and final cache state to a raw
// replay.
func TestSteadyMultigridLevels(t *testing.T) {
	const lm = 5
	fm := (1 << lm) + 2
	plan := core.Select(core.MethodGcdPad, 2048, fm, fm, core.Resid27pt())
	for _, p := range []core.Plan{{}, plan} {
		raw := cache.MustHierarchy(cache.UltraSparc2L1(), cache.UltraSparc2L2())
		st := cache.MustHierarchy(cache.UltraSparc2L1(), cache.UltraSparc2L2())
		sd := cache.NewSteady(st)
		sr := New(Params{LM: lm, Plan: p})
		ss := New(Params{LM: lm, Plan: p})
		for cyc := 0; cyc < 3; cyc++ {
			sr.TraceVCycleRuns(raw)
			sr.TraceResidRuns(raw)
			ss.TraceVCycleRuns(sd)
			ss.TraceResidRuns(sd)
		}
		for l := 0; l < 2; l++ {
			if raw.Level(l).Stats() != st.Level(l).Stats() {
				t.Errorf("tiled=%v L%d stats diverge: steady %+v, raw %+v",
					p.Tiled, l+1, st.Level(l).Stats(), raw.Level(l).Stats())
			}
			if !raw.Level(l).StateEqual(st.Level(l)) {
				t.Errorf("tiled=%v L%d final cache state diverges", p.Tiled, l+1)
			}
		}
	}
}

func TestRunSimulatedExperiment(t *testing.T) {
	res := RunSimulatedExperiment(5, 2048, core.MethodGcdPad,
		cache.UltraSparc2L1(), cache.UltraSparc2L2(), 1, 8, 50)
	if res.OrigL1 <= 0 || res.OrigL1 >= 100 || res.TiledL1 <= 0 {
		t.Fatalf("degenerate rates: %+v", res)
	}
	if res.ImprovementPct < -50 || res.ImprovementPct > 200 {
		t.Errorf("implausible improvement %+v", res)
	}
}
