package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// simSizes gives each kernel the Table 3 size every sim-table3 round
// simulates it at, from the paper's 200..400 range, at which two of the
// six methods select the same plan, so the warm-share layer has a point
// to share. The sizes are fixed, not drawn by the seed: a (kernel, N)
// sweep's simulation speed moves by up to 9x from one N to the next (64
// to 576 Mflop/s over eight sizes on the reference host), so a run of
// seeded sizes measures which sizes the seed drew, not the simulator.
// One size per kernel keeps a round near 2 s, so a run times every sweep
// about ten times. The seed orders the round's sweeps and each sweep's
// methods, which decides the warm-share leads.
var simSizes = map[stencil.Kernel]int{stencil.Jacobi: 332, stencil.RedBlack: 304, stencil.Resid: 246}

// simOptions is the paper's Table 3 configuration over its whole grid
// (N = 200..400): the UltraSparc2 16 KiB / 2 MiB direct-mapped
// hierarchy, K=30, the six paper methods, one warm and one measured
// sweep per point, every engine layer at its default. The sweeps run on one worker: two workers on the reference
// host's two shared vCPUs timed the host's scheduler.
func simOptions() (bench.Options, error) {
	opt := bench.DefaultOptions()
	opt.Methods = core.PaperMethods()
	opt.NMin, opt.NMax, opt.NStep = 200, 400, 1
	opt.Sweeps = 1
	opt.Workers = 1
	if err := opt.Validate(); err != nil {
		return opt, fmt.Errorf("sim-table3 options: %w", err)
	}
	return opt, nil
}

// simOp is one timed operation of a round: a kernel's six-method sweep
// at one size.
type simOp struct {
	k stencil.Kernel
	n int
}

func (o simOp) String() string { return fmt.Sprintf("%s/N=%d", o.k, o.n) }

func simOps() []simOp {
	var ops []simOp
	for _, k := range stencil.Kernels() {
		ops = append(ops, simOp{k, simSizes[k]})
	}
	return ops
}

// roundPoints lists every point a round simulates.
func roundPoints(opt bench.Options) []point {
	var pts []point
	for _, o := range simOps() {
		for _, m := range opt.Methods {
			pts = append(pts, point{o.k, m, o.n})
		}
	}
	return pts
}

// gridPoints lists every point of the paper's Table 3 grid, opt's sweep.
func gridPoints(opt bench.Options) []point {
	var pts []point
	for _, k := range stencil.Kernels() {
		for _, n := range opt.Sizes() {
			for _, m := range opt.Methods {
				pts = append(pts, point{k, m, n})
			}
		}
	}
	return pts
}

func runSimTable3(cfg runConfig, rec *recorder) (*result, error) {
	res := newResult()
	res.host = newHostRecord()
	opt, err := simOptions()
	if err != nil {
		return nil, err
	}
	ref, err := loadSimReference(cfg.refPath, opt)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	ops := simOps()
	pause := readGCPause()
	heap := startHeapSampler()

	// Set-up: validate the sweep and select the plan of every point of
	// the paper's whole Table 3 grid (N = 200..400), as the sweep engine
	// does before simulating.
	gridPts := gridPoints(opt)
	var setups, selects []float64
	for i := 0; i < 5; i++ {
		runtime.GC() // each set-up starts from the same heap
		setups = append(setups, cpuOf(func() {
			rec.do(0, "workload", "setup", "", func(id int) {
				if err = opt.Validate(); err != nil {
					return
				}
				for _, p := range gridPts {
					plan, us := timeSelect(rec, id, opt, p)
					selects = append(selects, us)
					stencil.NewTraceWorkload(p.k, p.n, opt.K, plan)
				}
			})
		}))
	}
	if err != nil {
		return nil, err
	}

	// Rounds: every op once, in a seeded order, each op's methods in a
	// seeded order. The traced run tallies the first round's
	// diagnostics, so its counters are one round's.
	var tally diagTally
	times := newOpTimes()
	var allocs []float64
	opFlops := map[string]float64{}
	measured := 0.0
	start := time.Now()
	for r := 0; !timeUp(start, cfg.seconds, r); r++ {
		a0 := allocatedMB()
		for _, oi := range rng.Perm(len(ops)) {
			op := ops[oi]
			oopt := opt
			oopt.NMin, oopt.NMax, oopt.NStep = op.n, op.n, 1
			oopt.Methods = append([]core.Method(nil), opt.Methods...)
			rng.Shuffle(len(oopt.Methods), func(i, j int) { oopt.Methods[i], oopt.Methods[j] = oopt.Methods[j], oopt.Methods[i] })
			if cfg.traced && r == 0 {
				oopt.DiagHook = tally.add // Workers is 1: calls are sequential
			}
			var outs []bench.PointOutcome
			flops := 0.0
			c0 := cpuSeconds()
			wall := rec.do(0, "bench", "SimOutcomes", op.String(), func(int) {
				outs, err = bench.SimOutcomes(op.k, oopt)
			})
			times.add(op.String(), wall, cpuSeconds()-c0)
			measured += wall
			if err != nil {
				return nil, fmt.Errorf("sim-table3 round %d %s: %w", r, op, err)
			}
			for _, o := range outs {
				res.attempted++
				if o.Failed || o.Degraded {
					res.failed++
					continue
				}
				flops += float64(o.Res.Flops)
				// Output gate: every point of every round equals the
				// engines-off reference.
				if err := ref.check(o); err != nil {
					return nil, err
				}
			}
			opFlops[op.String()] = flops
			if r == 0 {
				tally.count(outs)
			}
		}
		allocs = append(allocs, allocatedMB()-a0)
	}
	heap.finish(res.metrics)
	if res.failed > 0 {
		return nil, fmt.Errorf("sim-table3 gate: %d of %d points failed or degraded", res.failed, res.attempted)
	}

	if cfg.traced {
		tally.report(res.metrics)
		var sample []point
		for _, k := range stencil.Kernels() {
			for i := 0; i < 2; i++ {
				sample = append(sample, point{k, opt.Methods[rng.Intn(len(opt.Methods))], simSizes[k]})
			}
		}
		res.metrics["trace.overhead_ratio"] = rec.overheadRatio(measured)
		if err := probeSimLayers(rec, opt, sample, nil, res.metrics); err != nil {
			return nil, err
		}
		pause.report(res.metrics)
	}
	res.host.finish()

	m := res.metrics
	m["setup_s"] = median(setups)
	m["round_s"], m["round_cpu_s"] = times.round(len(allocs))
	m["runtime.alloc_mb"] = median(allocs)
	var rates []float64
	for op, f := range opFlops {
		rates = append(rates, f/median(times.cpu[op])/1e6)
	}
	m["mflops"] = geomean(rates)
	m["sweep_s"] = m["round_s"]
	m["sweep_cpu_s"] = m["round_cpu_s"]
	m["failed_ratio"] = float64(res.failed) / float64(res.attempted)
	m["core.select_us"] = median(selects)
	m["bench.failed_points"] = float64(tally.failed)
	m["bench.degraded_points"] = float64(tally.degraded)
	return res, nil
}

// refPoint is one point of the committed engines-off reference.
type refPoint struct {
	Kernel string      `json:"kernel"`
	Method string      `json:"method"`
	N      int         `json:"n"`
	L1     cache.Stats `json:"l1"`
	L2     cache.Stats `json:"l2"`
}

// simReference is the committed reference file: the engines-off
// (DisableSteady+DisableWarmShare+DisableDelta) statistics of every
// point a round simulates. The points do not depend on the seed, so one
// file serves every seed.
type simReference struct {
	Points []refPoint `json:"points"`
}

// simRef indexes the reference by point.
type simRef map[bench.PointKey]refPoint

// engineOff returns opt with every simulator acceleration disabled: the
// full-replay reference the gate trusts.
func engineOff(opt bench.Options) bench.Options {
	opt.DisableSteady, opt.DisableWarmShare, opt.DisableDelta = true, true, true
	opt.DiagHook = nil
	return opt
}

// loadSimReference reads the committed reference and checks that it
// covers every point of the round.
func loadSimReference(path string, opt bench.Options) (simRef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim-table3 gate: %w", err)
	}
	var file simReference
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("sim-table3 gate: %s: %w", path, err)
	}
	ref := simRef{}
	for _, p := range file.Points {
		ref[bench.PointKey{Kernel: p.Kernel, Method: p.Method, N: p.N}] = p
	}
	for _, p := range roundPoints(opt) {
		if _, ok := ref[bench.PointKey{Kernel: p.k.String(), Method: p.m.String(), N: p.n}]; !ok {
			return nil, fmt.Errorf("sim-table3 gate: %s has no reference for %s", path, p)
		}
	}
	return ref, nil
}

// check is the sim-table3 output gate for one outcome.
func (ref simRef) check(o bench.PointOutcome) error {
	r, ok := ref[o.Key]
	if !ok {
		return fmt.Errorf("sim-table3 gate: outcome %s has no reference point", o.Key)
	}
	if o.Res.L1 != r.L1 || o.Res.L2 != r.L2 {
		return fmt.Errorf("sim-table3 gate: %s: statistics L1 %+v L2 %+v differ from the engines-off reference L1 %+v L2 %+v",
			o.Key, o.Res.L1, o.Res.L2, r.L1, r.L2)
	}
	return nil
}

// writeReference computes the engines-off reference for every point of
// the round and writes it to path.
func writeReference(path string) error {
	opt, err := simOptions()
	if err != nil {
		return err
	}
	var file simReference
	for _, op := range simOps() {
		oopt := engineOff(opt)
		oopt.NMin, oopt.NMax, oopt.NStep = op.n, op.n, 1
		oopt.Workers = nproc()
		outs, err := bench.SimOutcomes(op.k, oopt)
		if err != nil {
			return err
		}
		for _, o := range outs {
			if o.Failed || o.Degraded {
				return fmt.Errorf("reference point %s did not simulate: %s", o.Key, o.Err)
			}
			file.Points = append(file.Points, refPoint{Kernel: o.Key.Kernel, Method: o.Key.Method, N: o.Key.N, L1: o.Res.L1, L2: o.Res.L2})
		}
	}
	b, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
