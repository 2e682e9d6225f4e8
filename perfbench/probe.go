package main

import (
	"fmt"
	"time"

	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// point is one simulation point: a kernel under a method at size N.
type point struct {
	k stencil.Kernel
	m core.Method
	n int
}

func (p point) String() string { return fmt.Sprintf("%s/%s/N=%d", p.k, p.m, p.n) }

// timeSelect runs the selection for p and returns the plan and the
// call's time in microseconds.
func timeSelect(rec *recorder, parent int, opt bench.Options, p point) (core.Plan, float64) {
	var plan core.Plan
	s := rec.do(parent, "core", "Select", p.String(), func(int) {
		plan = core.Select(p.m, opt.CacheElems(), p.n, p.n, p.k.Spec())
	})
	return plan, s * 1e6
}

// probeSimLayers drives the simulator's layers one at a time on each
// sample point, the way one point of a sweep uses them: the walker
// records the warm and measured sweeps' stream into a RunRecorder, and
// the stream is replayed through a bare Hierarchy, through the steady
// engine, and through delta replay; then the sweep engine simulates the
// same point end to end. All four measured-sweep statistics must agree.
//
// A non-nil tally receives the sweep engine's diagnostics for the sample
// points, for workloads whose own sweeps run where no DiagHook reaches.
func probeSimLayers(rec *recorder, opt bench.Options, pts []point, tally *diagTally, metrics map[string]float64) error {
	var walkS, replayS, steadyS, deltaS float64
	var accesses, runs, skipped, units float64
	var pointMs []float64
	for _, p := range pts {
		var probeErr error
		rec.do(0, "probe", "point", p.String(), func(root int) {
			plan, _ := timeSelect(rec, root, opt, p)
			w := stencil.NewTraceWorkload(p.k, p.n, opt.K, plan)
			var rr cache.RunRecorder
			walkS += rec.do(root, "stencil", "ReplayTrace", p.String(), func(int) { w.ReplayTrace(&rr) })
			accesses += float64(rr.Accesses())
			runs += float64(len(rr.Runs))

			// Bare replay: warm sweep, reset, measured sweep.
			bare := cache.MustHierarchy(opt.L1, opt.L2)
			replayS += rec.do(root, "cache", "Hierarchy.ReplayRuns", p.String(), func(int) {
				rr.ReplayInto(bare)
				bare.ResetStats()
				rr.ReplayInto(bare)
			})

			hs := cache.MustHierarchy(opt.L1, opt.L2)
			sd := cache.NewSteady(hs)
			steadyS += rec.do(root, "cache", "Steady.ReplayRuns", p.String(), func(int) {
				rr.ReplayInto(sd)
				hs.ResetStats()
				rr.ReplayInto(sd)
			})
			skipped += float64(sd.SkippedPlanes())
			units += float64(2 * len(rr.Marks))

			hd := cache.MustHierarchy(opt.L1, opt.L2)
			dd := cache.NewSteady(hd)
			dd.DeltaTraceBegin()
			rr.ReplayInto(dd)
			hd.ResetStats()
			replayed := false
			deltaS += rec.do(root, "cache", "DeltaTraceEnd+ReplayDeltaSweep", p.String(), func(int) {
				replayed = dd.DeltaTraceEnd() && dd.ReplayDeltaSweep()
			})
			if !replayed {
				rr.ReplayInto(dd)
			}

			popt := opt
			popt.NMin, popt.NMax, popt.NStep = p.n, p.n, 1
			popt.Methods = []core.Method{p.m}
			popt.Workers = 1
			popt.DiagHook = nil
			if tally != nil {
				popt.DiagHook = tally.add // Workers is 1: calls are sequential
			}
			var outs []bench.PointOutcome
			var err error
			pointMs = append(pointMs, 1e3*rec.do(root, "bench", "SimOutcomes", p.String(), func(int) {
				outs, err = bench.SimOutcomes(p.k, popt)
			}))
			switch {
			case err != nil:
				probeErr = fmt.Errorf("probe %s: %w", p, err)
			case len(outs) != 1 || outs[0].Failed:
				probeErr = fmt.Errorf("probe %s: sweep engine did not simulate the point", p)
			default:
				want := [2]cache.Stats{bare.Level(0).Stats(), bare.Level(1).Stats()}
				for name, got := range map[string][2]cache.Stats{
					"steady": {hs.Level(0).Stats(), hs.Level(1).Stats()},
					"delta":  {hd.Level(0).Stats(), hd.Level(1).Stats()},
					"sweep":  {outs[0].Res.L1, outs[0].Res.L2},
				} {
					if got != want {
						probeErr = fmt.Errorf("probe %s: %s statistics %+v differ from bare replay %+v", p, name, got, want)
					}
				}
			}
		})
		if probeErr != nil {
			return probeErr
		}
	}
	metrics["stencil.walk_s"] = walkS
	metrics["stencil.walk_ns_per_access"] = 1e9 * walkS / accesses
	metrics["stencil.accesses_per_run"] = accesses / runs
	// The bare hierarchy replays the recorded stream twice per point.
	metrics["cache.replay_s"] = replayS
	metrics["cache.replay_ns_per_access"] = 1e9 * replayS / (2 * accesses)
	metrics["cache.steady_s"] = steadyS
	metrics["cache.steady.skip_ratio"] = skipped / units
	metrics["cache.delta_s"] = deltaS
	metrics["bench.point_p50_ms"] = median(pointMs)
	metrics["bench.point_p90_ms"] = quantile(pointMs, 0.9)
	return nil
}

// diagTally sums the sweep engine's per-point diagnostics; its add
// method is the DiagHook of a traced sweep.
type diagTally struct {
	points, shared, deltaReused, simulated int
	failed, degraded                       int    // outcomes, from count
	refused                                uint64 // phases refused detection, all causes
	steady                                 cache.SteadyDiag
	delta                                  cache.DeltaDiag
}

func (t *diagTally) add(d bench.PointDiag) {
	t.points++
	if d.Shared != "" {
		t.shared++
		return
	}
	t.simulated++
	if d.DeltaReused() {
		t.deltaReused++
	}
	s := d.Steady
	t.steady.Confirmed += s.Confirmed
	t.steady.Echoes += s.Echoes
	t.steady.SweepEchoes += s.SweepEchoes
	t.steady.ScopedConfirms += s.ScopedConfirms
	t.refused += s.RefusedDelta + s.RefusedBudget + s.RefusedT0 + s.RefusedShort
	t.delta.Fallbacks += d.Delta.Fallbacks
	t.delta.UnitsSkipped += d.Delta.UnitsSkipped
	t.delta.UnitsReplayed += d.Delta.UnitsReplayed
	t.delta.PinCompares += d.Delta.PinCompares
}

// count tallies the failed and degraded outcomes of a sweep.
func (t *diagTally) count(outs []bench.PointOutcome) {
	for _, o := range outs {
		if o.Failed {
			t.failed++
		}
		if o.Degraded {
			t.degraded++
		}
	}
}

func (t *diagTally) report(metrics map[string]float64) {
	if t.points > 0 {
		metrics["bench.shared_ratio"] = float64(t.shared) / float64(t.points)
	}
	if t.simulated > 0 {
		metrics["cache.delta.reuse_ratio"] = float64(t.deltaReused) / float64(t.simulated)
	}
	metrics["cache.steady.confirmed"] = float64(t.steady.Confirmed)
	metrics["cache.steady.echoes"] = float64(t.steady.Echoes)
	metrics["cache.steady.sweep_echoes"] = float64(t.steady.SweepEchoes)
	metrics["cache.steady.scoped_confirms"] = float64(t.steady.ScopedConfirms)
	metrics["cache.steady.refused"] = float64(t.refused)
	metrics["cache.delta.fallbacks"] = float64(t.delta.Fallbacks)
	metrics["cache.delta.units_skipped"] = float64(t.delta.UnitsSkipped)
	metrics["cache.delta.units_replayed"] = float64(t.delta.UnitsReplayed)
	metrics["cache.delta.pin_compares"] = float64(t.delta.PinCompares)
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
