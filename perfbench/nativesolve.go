package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"tiling3d/internal/core"
	"tiling3d/internal/mg"
	"tiling3d/internal/stencil"
)

const (
	nativeK        = 30
	nativeL1Elems  = 2048 // the paper's 16 KiB L1 in doubles: the tiled plans' target
	nativeRepeats  = 3    // interleaved sweeps per method per cell and round
	nativeInCacheN = 48   // grid edge whose arrays stay resident in a 2 MiB L2
	mgLevels       = 7    // 130^3, the SPEC MGRID reference size
	mgCharges      = 20
	mgReduction    = 1e-6 // solve until the residual norm falls by this factor
	mgMaxCycles    = 100
)

// nativeCell is one kernel at one size: its methods' workloads share
// the seeded initial arrays.
type nativeCell struct {
	kernel stencil.Kernel
	size   string // "small" or "large"
	n      int
}

// nativeCells lists each kernel at two sizes: N=208, where three
// N x N planes fit the host's 2 MiB L2, and N=400, where they do not.
// The sizes are fixed, not drawn by the seed: the tiled plans' tiles
// and pads, and so their speed against Orig, change from one N to the
// next. The seed fills the arrays and orders the sweeps.
func nativeCells() []nativeCell {
	var cells []nativeCell
	for _, k := range stencil.Kernels() {
		cells = append(cells, nativeCell{k, "small", 208}, nativeCell{k, "large", 400})
	}
	return cells
}

func nativeMethodList() []core.Method {
	out := make([]core.Method, len(nativeMethods))
	for i, s := range nativeMethods {
		m, err := core.ParseMethod(s)
		if err != nil {
			panic(err) // nativeMethods is a constant list of valid names
		}
		out[i] = m
	}
	return out
}

// seededValue is the seed's initial value for element (i, j, k) of
// array a: in [1, 1.5), so no sweep meets a denormal or a zero.
func seededValue(seed int64, a, i, j, k int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(a)<<48 ^ uint64(k)<<32 ^ uint64(j)<<16 ^ uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + 0.5*float64(x>>11)/(1<<53)
}

// newCellWorkloads allocates one workload per method for the cell, all
// holding the seed's initial arrays.
func newCellWorkloads(seed int64, c nativeCell, methods []core.Method) []*stencil.Workload {
	ws := make([]*stencil.Workload, len(methods))
	for mi, m := range methods {
		plan := core.Select(m, nativeL1Elems, c.n, c.n, c.kernel.Spec())
		ws[mi] = stencil.NewWorkload(c.kernel, c.n, nativeK, plan, stencil.DefaultCoeffs())
		for a, g := range ws[mi].Grids {
			if mi == 0 {
				g.FillFunc(func(i, j, k int) float64 { return seededValue(seed, a, i, j, k) })
			} else {
				g.CopyLogical(ws[0].Grids[a])
			}
		}
	}
	return ws
}

// sameGrids reports the first logical element where two workloads'
// arrays differ bit for bit.
func sameGrids(a, b *stencil.Workload) error {
	for gi := range a.Grids {
		ga, gb := a.Grids[gi], b.Grids[gi]
		for k := 0; k < ga.NK; k++ {
			for j := 0; j < ga.NJ; j++ {
				for i := 0; i < ga.NI; i++ {
					if math.Float64bits(ga.At(i, j, k)) != math.Float64bits(gb.At(i, j, k)) {
						return fmt.Errorf("array %d differs at (%d,%d,%d): %v vs %v", gi, i, j, k, ga.At(i, j, k), gb.At(i, j, k))
					}
				}
			}
		}
	}
	return nil
}

// mgSolution is what a multigrid solve produced.
type mgSolution struct {
	iterations int
	norm       float64
	seconds    float64
}

// newSolver builds the LM=7 solver with the seed's point charges as the
// right-hand side.
func newSolver(seed int64, plan core.Plan, workers int) *mg.Solver {
	s := mg.New(mg.Params{LM: mgLevels, Plan: plan, Workers: workers})
	rng := rand.New(rand.NewSource(seed + 3))
	n := s.N()
	charges := map[[3]int]float64{}
	for c := 0; c < mgCharges; c++ {
		charges[[3]int{1 + rng.Intn(n), 1 + rng.Intn(n), 1 + rng.Intn(n)}] = float64(1 - 2*(c%2))
	}
	s.SetRHS(func(i, j, k int) float64 { return charges[[3]int{i, j, k}] })
	return s
}

// solve runs V-cycles until the residual norm falls by mgReduction,
// recording each V-cycle and residual call as an mg span and adding its
// wall and CPU time to times, when times is not nil.
func solve(rec *recorder, parent int, s *mg.Solver, times *opTimes) (mgSolution, error) {
	call := func(name string, fn func()) {
		c0 := cpuSeconds()
		wall := rec.do(parent, "mg", name, "", func(int) { fn() })
		if times != nil {
			times.add("mg "+name, wall, cpuSeconds()-c0)
		}
	}
	var sol mgSolution
	start := time.Now()
	call("Resid", s.Resid)
	n0 := s.ResidualNorm()
	sol.norm = n0
	for sol.norm > n0*mgReduction {
		if sol.iterations == mgMaxCycles {
			return sol, fmt.Errorf("multigrid: residual %g after %d V-cycles, want %g", sol.norm, mgMaxCycles, n0*mgReduction)
		}
		call("VCycle", s.VCycle)
		call("Resid", s.Resid)
		sol.norm = s.ResidualNorm()
		sol.iterations++
	}
	sol.seconds = since(start)
	return sol, nil
}

func runNativeSolve(cfg runConfig, rec *recorder) (*result, error) {
	res := newResult()
	res.host = newHostRecord()
	rng := rand.New(rand.NewSource(cfg.seed))
	cells := nativeCells()
	methods := nativeMethodList()
	mgPlan := core.Select(core.MethodGcdPad, nativeL1Elems, 1<<mgLevels+2, 1<<mgLevels+2, stencil.Resid.Spec())
	pause := readGCPause()
	heap := startHeapSampler()

	// Rounds: every cell's arrays allocated and filled (the set-up), its
	// methods' sweeps interleaved in a seeded order, then one multigrid
	// solve. mflops[cell][method] collects every sweep's rate.
	mflops := make([][][]float64, len(cells))
	for ci := range cells {
		mflops[ci] = make([][]float64, len(methods))
	}
	times := newOpTimes()
	var setups, allocs, solveS []float64
	var measuredSol mgSolution
	largest, measured := int64(0), 0.0
	start := time.Now()
	for r := 0; !timeUp(start, cfg.seconds, r); r++ {
		setup, a0 := 0.0, allocatedMB()
		for ci, c := range cells {
			var ws []*stencil.Workload
			setup += cpuOf(func() {
				rec.do(0, "workload", "setup", c.kernel.String()+"/"+c.size, func(int) {
					ws = newCellWorkloads(cfg.seed, c, methods)
				})
			})
			if b := ws[0].MemoryBytes(); b > largest {
				largest = b
			}
			runtime.GC() // off the clock: the live heap now holds every method's arrays
			flops := float64(ws[0].Flops())
			for rep := 0; rep < nativeRepeats; rep++ {
				for _, mi := range rng.Perm(len(ws)) {
					op := fmt.Sprintf("%s/%s/N=%d", c.kernel, methods[mi], c.n)
					c0 := cpuSeconds()
					s := rec.do(0, "stencil", "RunNative", op, func(int) { ws[mi].RunNative() })
					cpu := cpuSeconds() - c0
					times.add(op, s, cpu)
					measured += s
					mflops[ci][mi] = append(mflops[ci][mi], flops/cpu/1e6)
					res.attempted++
				}
			}
			// Gate, off the clock: every tiled grid equals Orig's after
			// the same number of sweeps.
			for mi := 1; mi < len(ws); mi++ {
				if err := sameGrids(ws[0], ws[mi]); err != nil {
					return nil, fmt.Errorf("native-solve gate: %s N=%d %s vs Orig: %w", c.kernel, c.n, methods[mi], err)
				}
			}
			ws = nil
			runtime.GC()
		}

		var s *mg.Solver
		setup += cpuOf(func() {
			rec.do(0, "workload", "setup", "mg", func(int) { s = newSolver(cfg.seed, mgPlan, nproc()) })
		})
		var sol mgSolution
		var err error
		rec.do(0, "mg", "solve", fmt.Sprint(r), func(id int) { sol, err = solve(rec, id, s, times) })
		if err != nil {
			return nil, err
		}
		measured += sol.seconds
		if r > 0 && (sol.iterations != measuredSol.iterations || math.Float64bits(sol.norm) != math.Float64bits(measuredSol.norm)) {
			return nil, fmt.Errorf("native-solve gate: round %d solve gave %d V-cycles, norm %v; round 0 gave %d, %v", r, sol.iterations, sol.norm, measuredSol.iterations, measuredSol.norm)
		}
		measuredSol = sol
		solveS = append(solveS, sol.seconds)
		res.attempted++
		s = nil
		runtime.GC()
		setups = append(setups, setup)
		allocs = append(allocs, allocatedMB()-a0)
	}
	heap.finish(res.metrics)

	// Gate, off the clock: the solve's V-cycle count and final norm are
	// identical under the untiled plan and on one worker. The one-worker
	// tiled solve is also schedule.mg_speedup's single-threaded baseline.
	var serialS float64
	for _, v := range []struct {
		plan    core.Plan
		workers int
	}{{core.Plan{}, 1}, {mgPlan, 1}} {
		s := newSolver(cfg.seed, v.plan, v.workers)
		sol, err := solve(rec, 0, s, nil)
		if err != nil {
			return nil, err
		}
		if sol.iterations != measuredSol.iterations || math.Float64bits(sol.norm) != math.Float64bits(measuredSol.norm) {
			return nil, fmt.Errorf("native-solve gate: solve with plan %+v on %d worker(s) gave %d V-cycles, norm %v; the measured solve %d, %v",
				v.plan, v.workers, sol.iterations, sol.norm, measuredSol.iterations, measuredSol.norm)
		}
		res.attempted++
		if v.plan.Tiled {
			serialS = sol.seconds
		}
	}
	runtime.GC()

	// A cell's rate is the median of its sweeps' rates per CPU second.
	m := res.metrics
	var all, orig, tiled, ratios []float64
	for ci, c := range cells {
		o := median(mflops[ci][0])
		for mi, meth := range methods {
			v := median(mflops[ci][mi])
			m[fmt.Sprintf("stencil.mflops.%s.%s.%s", strings.ToLower(c.kernel.String()), meth, c.size)] = v
			all = append(all, v)
			if mi == 0 {
				orig = append(orig, v)
			} else {
				tiled = append(tiled, v)
				ratios = append(ratios, v/o)
			}
		}
	}

	if cfg.traced {
		m["trace.overhead_ratio"] = rec.overheadRatio(measured)
		if err := probeNativeLayers(rec, cfg.seed, cells, methods, m); err != nil {
			return nil, err
		}
		m["schedule.mg_speedup"] = serialS / median(solveS)
		pause.report(m)
	}
	res.host.finish()
	res.host.GridBytes = map[string]int64{
		"largest_cell": largest,
		"host_l2":      cacheBytes(res.host.Caches, "2"),
		"host_l3":      cacheBytes(res.host.Caches, "3"),
	}

	m["setup_s"] = median(setups)
	m["round_s"], m["round_cpu_s"] = times.round(len(setups))
	m["runtime.alloc_mb"] = median(allocs)
	m["mflops"] = geomean(all)
	m["native_orig_mflops"] = geomean(orig)
	m["native_tiled_mflops"] = geomean(tiled)
	m["tiling_speedup"] = geomean(ratios)
	m["mg_solve_s"] = median(solveS)
	m["mg.iterations"] = float64(measuredSol.iterations)
	m["mg.vcycle_ms"] = 1e3 * median(times.wall["mg VCycle"])
	m["mg.resid_ms"] = 1e3 * median(times.wall["mg Resid"])
	m["failed_ratio"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}

// timeSweeps runs fn until at least minTotal has accumulated (and at
// least three times) and returns the median call time in seconds.
func timeSweeps(rec *recorder, layer, name, op string, minTotal time.Duration, fn func()) float64 {
	var ts []float64
	total := 0.0
	for len(ts) < 3 || total < minTotal.Seconds() {
		s := rec.do(0, layer, name, op, func(int) { fn() })
		ts = append(ts, s)
		total += s
	}
	return median(ts)
}

// probeNativeLayers measures the native layers the timed rounds cannot
// separate: each plan's rate on an L2-resident grid (the compute share of
// a sweep; the rest of the large-grid time is memory), and the certified
// parallel schedules against the serial sweep, whose results must be
// bit-identical.
func probeNativeLayers(rec *recorder, seed int64, cells []nativeCell, methods []core.Method, metrics map[string]float64) error {
	for _, c := range cells {
		if c.size != "large" {
			continue
		}
		for _, m := range methods {
			plan := core.Select(m, nativeL1Elems, c.n, c.n, c.kernel.Spec())
			plan.DI, plan.DJ = nativeInCacheN, nativeInCacheN
			w := stencil.NewWorkload(c.kernel, nativeInCacheN, nativeK, plan, stencil.DefaultCoeffs())
			s := timeSweeps(rec, "stencil", "RunNative", fmt.Sprintf("%s/%s/incache", c.kernel, m), 50*time.Millisecond, w.RunNative)
			metrics[fmt.Sprintf("stencil.incache_mflops.%s.%s", strings.ToLower(c.kernel.String()), m)] = float64(w.Flops()) / s / 1e6
		}
	}

	for _, v := range []struct {
		kernel stencil.Kernel
		mode   stencil.ScheduleMode
		metric string
	}{
		{stencil.Jacobi, stencil.ScheduleBatch, "schedule.batch_speedup.jacobi"},
		{stencil.RedBlack, stencil.ScheduleWavefront, "schedule.wavefront_speedup.redblack"},
	} {
		var cell nativeCell
		for _, c := range cells {
			if c.kernel == v.kernel && c.size == "large" {
				cell = c
			}
		}
		ws := newCellWorkloads(seed, cell, []core.Method{core.MethodGcdPad, core.MethodGcdPad})
		var serr error
		counts := [2]int{}
		serial := timeSweeps(rec, "stencil", "RunNative", cell.kernel.String()+"/serial", 200*time.Millisecond, func() {
			ws[0].RunNative()
			counts[0]++
		})
		par := timeSweeps(rec, "schedule", "RunScheduled", cell.kernel.String()+"/parallel", 200*time.Millisecond, func() {
			if err := ws[1].RunScheduled(v.mode, nproc()); err != nil && serr == nil {
				serr = err
			}
			counts[1]++
		})
		if serr != nil {
			return fmt.Errorf("native-solve: %s schedule: %w", cell.kernel, serr)
		}
		metrics[v.metric] = serial / par
		// Bring both copies to the same sweep count, then compare.
		for ; counts[0] < counts[1]; counts[0]++ {
			ws[0].RunNative()
		}
		for ; counts[1] < counts[0]; counts[1]++ {
			ws[1].RunNative()
		}
		if err := sameGrids(ws[0], ws[1]); err != nil {
			return fmt.Errorf("native-solve gate: %s scheduled sweep: %w", cell.kernel, err)
		}
		runtime.GC()
	}
	return nil
}
