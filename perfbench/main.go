// Command perfbench is the repository's benchmark. It drives the tiling
// system's public layers (bench, cache, stencil, core, deps, transform,
// lang, mg, schedule, advisor) from outside, on one of three workloads,
// checks every output against an independent reference, and prints the
// metrics named in BENCHMARK.json as the last line of standard output:
//
//	bash perfbench/run.sh --workload sim-table3 --seed 1 --seconds 20 --trace 0
//
// A run repeats the workload's round, a fixed set of operations, until
// the measured time is spent, and reports a round's time as the sum of
// the operations' median times. With --trace 0 the line carries the end-to-end metrics, measured with
// span recording off; with --trace 1 it carries the per-layer metrics of
// a separate traced run, and the spans are written under .bench_out.
// Every workload generates its inputs from --seed. An output gate that
// fails ends the run with a non-zero exit status before any metric is
// printed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed of a run that names none.
const defaultSeed = 1

// metricDef names one reported metric, its unit, and which direction is
// better ("higher" or "lower").
type metricDef struct{ name, unit, better string }

// endToEnd lists the metrics every workload reports untraced. Each is
// measured on the workload's own work (layers.json says what a round is
// on each workload), in process CPU time: the reference host's other
// tenants stole from 2% to 25% of its CPU time in runs minutes apart,
// which moved every wall-clock figure by as much. Wall time is per-layer
// (round_s and the workload figures).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"round_cpu_s", "s", "lower"},
	{"mflops", "Mflop/s", "higher"},
}

// Kernel names and native methods as they appear in per-layer metric
// names.
var (
	kernelNames   = []string{"jacobi", "redblack", "resid"}
	nativeMethods = []string{"Orig", "Euc3D", "GcdPad"}
	layerNames    = []string{"bench", "core", "stencil", "cache", "advisor", "deps", "transform", "lang", "mg", "schedule"}
)

// perLayer lists the metrics the traced run reports. A workload that
// bypasses a layer reports 0 for it: no work was done there.
func perLayer() []metricDef {
	defs := []metricDef{
		{"round_s", "s", "lower"},
		{"sweep_s", "s", "lower"},
		{"sweep_cpu_s", "s", "lower"},
		{"plan_p50_ms", "ms", "lower"},
		{"plan_p90_ms", "ms", "lower"},
		{"plan_rps", "1/s", "higher"},
		{"plan_samples", "count", "higher"},
		{"native_orig_mflops", "Mflop/s", "higher"},
		{"native_tiled_mflops", "Mflop/s", "higher"},
		{"tiling_speedup", "x", "higher"},
		{"mg_solve_s", "s", "lower"},
		{"failed_ratio", "ratio", "lower"},
		{"core.select_us", "us", "lower"},
		{"stencil.walk_s", "s", "lower"},
		{"stencil.walk_ns_per_access", "ns", "lower"},
		{"stencil.accesses_per_run", "count", "higher"},
	}
	for _, k := range kernelNames {
		for _, m := range nativeMethods {
			for _, size := range []string{"small", "large"} {
				defs = append(defs, metricDef{fmt.Sprintf("stencil.mflops.%s.%s.%s", k, m, size), "Mflop/s", "higher"})
			}
		}
	}
	for _, k := range kernelNames {
		for _, m := range nativeMethods {
			defs = append(defs, metricDef{fmt.Sprintf("stencil.incache_mflops.%s.%s", k, m), "Mflop/s", "higher"})
		}
	}
	defs = append(defs,
		metricDef{"cache.replay_s", "s", "lower"},
		metricDef{"cache.replay_ns_per_access", "ns", "lower"},
		metricDef{"cache.steady_s", "s", "lower"},
		metricDef{"cache.steady.skip_ratio", "ratio", "higher"},
		metricDef{"cache.steady.confirmed", "count", "higher"},
		metricDef{"cache.steady.echoes", "count", "higher"},
		metricDef{"cache.steady.sweep_echoes", "count", "higher"},
		metricDef{"cache.steady.scoped_confirms", "count", "higher"},
		metricDef{"cache.steady.refused", "count", "lower"},
		metricDef{"cache.delta_s", "s", "lower"},
		metricDef{"cache.delta.reuse_ratio", "ratio", "higher"},
		metricDef{"cache.delta.fallbacks", "count", "lower"},
		metricDef{"cache.delta.units_skipped", "count", "higher"},
		metricDef{"cache.delta.units_replayed", "count", "lower"},
		metricDef{"cache.delta.pin_compares", "count", "lower"},
		metricDef{"bench.shared_ratio", "ratio", "higher"},
		metricDef{"bench.point_p50_ms", "ms", "lower"},
		metricDef{"bench.point_p90_ms", "ms", "lower"},
		metricDef{"bench.failed_points", "count", "lower"},
		metricDef{"bench.degraded_points", "count", "lower"},
		metricDef{"advisor.cache_hit_ratio", "ratio", "higher"},
		metricDef{"advisor.shed_ratio", "ratio", "lower"},
		metricDef{"advisor.pool_waiting_mean", "count", "lower"},
		metricDef{"advisor.static_ms", "ms", "lower"},
		metricDef{"advisor.simulate_ms", "ms", "lower"},
		metricDef{"deps.dependences_us", "us", "lower"},
		metricDef{"transform.apply_us", "us", "lower"},
		metricDef{"deps.certify_us", "us", "lower"},
		metricDef{"lang.parse_us", "us", "lower"},
		metricDef{"mg.iterations", "count", "lower"},
		metricDef{"mg.vcycle_ms", "ms", "lower"},
		metricDef{"mg.resid_ms", "ms", "lower"},
		metricDef{"schedule.mg_speedup", "x", "higher"},
		metricDef{"schedule.batch_speedup.jacobi", "x", "higher"},
		metricDef{"schedule.wavefront_speedup.redblack", "x", "higher"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"runtime.alloc_mb", "MB", "lower"},
		metricDef{"runtime.heap_mb", "MB", "lower"},
		metricDef{"runtime.peak_heap_mb", "MB", "lower"},
		metricDef{"trace.overhead_ratio", "ratio", "lower"},
	)
	for _, l := range layerNames {
		defs = append(defs, metricDef{"trace.self_s." + l, "s", "lower"})
	}
	return defs
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// refPath is the committed sim-table3 reference for defaultSeed.
	refPath string
}

// result is what a workload hands back: the operation counts and every
// metric it measured. The workload figures (sweep_s, plan_p90_ms,
// tiling_speedup, ...) are printed in the report lines of every run and
// carried on the result line of the traced run.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	host              hostRecord
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// workloads maps a workload name to its runner.
var workloads = map[string]func(cfg runConfig, rec *recorder) (*result, error){
	"sim-table3":   runSimTable3,
	"advisor-host": runAdvisorHost,
	"native-solve": runNativeSolve,
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-table3, advisor-host or native-solve")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	writeRef := flag.String("write-reference", "", "compute the engines-off sim-table3 reference and write it to this file, then exit")
	flag.Parse()

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fail(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, refPath: referencePath()}
	rec := newRecorder(cfg.traced)
	res, err := run(cfg, rec)
	if err != nil {
		fail(err)
	}
	if cfg.traced {
		rec.report(res.metrics)
		if err := rec.write(filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))); err != nil {
			fail(err)
		}
	}
	printReport(os.Stdout, *name, cfg, res)
}

// referencePath finds the committed reference next to the sources: the
// benchmark runs from the checkout root, the self-test from perfbench.
func referencePath() string {
	for _, p := range []string{"perfbench/testdata/simtable3_ref.json", "testdata/simtable3_ref.json"} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "perfbench/testdata/simtable3_ref.json"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadFigures are printed by name on every run of the workload that
// measures them.
var workloadFigures = map[string][]string{
	"sim-table3":   {"sweep_s", "sweep_cpu_s", "failed_ratio"},
	"advisor-host": {"round_s", "plan_p50_ms", "plan_p90_ms", "plan_samples", "plan_rps", "failed_ratio"},
	"native-solve": {"round_s", "native_orig_mflops", "native_tiled_mflops", "tiling_speedup", "mg_solve_s", "failed_ratio"},
}

// dropped lists what the traced run leaves out of the specified metric set,
// and why.
var dropped = []string{
	"failed_ratio is no end-to-end metric: BENCHMARK.json admits only metrics that are never 0. Failures are counted in the result line's attempted and failed fields, and failed_ratio is printed by name.",
	"the workload-specific figures (sweep_s, sweep_cpu_s, plan_p50_ms, plan_p90_ms, plan_rps, native_orig_mflops, native_tiled_mflops, tiling_speedup, mg_solve_s) are no end-to-end metrics: every run must print every end-to-end metric. Each workload prints its own by name; round_cpu_s and mflops carry them into the bounded set.",
	"no wall-clock time is an end-to-end metric: the reference host's other tenants stole from 2% to 25% of its CPU time in runs minutes apart, and over five such runs of the same code sim-table3's wall-clock round_s and setup_s spread by 24% and 29% of their medians. setup_s, round_cpu_s and mflops are measured in process CPU time, which steal does not count; round_s and the latency figures are per-layer. CPU time still follows the host's load: sim-table3's round_cpu_s was 22% higher in runs with 20% steal than in runs with 4%.",
	"the sizes are not drawn by the seed: sim-table3 simulates N=240 and N=333, advisor-host asks for twelve fixed kernel x method x N keys, native-solve sweeps N=208 and N=400. On the reference host a (kernel, N) sweep's simulation speed moved by up to 9x from one N to the next, so runs of seeded sizes spread by which sizes the seed drew, past any bound. The seed orders every round's sweeps, methods and requests, picks the advisor's repeats and listing, fills the native arrays and places the multigrid charges.",
	"sim-table3 simulates one Table 3 size per kernel in a round, not the whole 200..400 grid: a whole-grid sweep is one sample of 30 to 50 seconds, which the host's other tenants moved by a third between runs. Set-up still selects the plans of the whole grid.",
	"sim-table3 simulates on one worker, not nproc: two workers on the reference host's two shared vCPUs timed the host's scheduler.",
	"the sim-table3 gate recomputes nothing for other seeds: the points do not depend on the seed, so the committed engines-off reference covers every point of every seed's run.",
	"peak_heap_mb, and memory in general, is per-layer: runtime.peak_heap_mb, runtime.heap_mb (the live heap's median over time) and runtime.alloc_mb (heap allocated per round). With seeded advisor sizes the peak live heap swung from 35 to 185 MB between seeds, and the live heap always depends on when the collector ran.",
	"op_p50_ms, a median operation latency, is no end-to-end metric: a workload's operations differ in size, so their median falls between clusters and jumps. round_s sums per-operation medians instead; plan_p50_ms, plan_p90_ms, bench.point_p50_ms, mg.vcycle_ms and the span self times report latency per layer.",
	"native-solve times Euc3D and GcdPad of the paper's tiled plans, not Tile and Pad, to bound the run's memory: three methods of the large RESID cell already hold about 350 MB.",
	"on advisor-host the cache.steady and cache.delta counters come from the probe points: the server's own sweeps run where no DiagHook reaches.",
}

func printReport(w io.Writer, name string, cfg runConfig, res *result) {
	host, _ := json.Marshal(res.host)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", name, cfg.seed, cfg.seconds, cfg.traced)
	fmt.Fprintf(w, "host %s\n", host)
	units := map[string]string{}
	for _, d := range append(perLayer(), endToEnd...) {
		units[d.name] = d.unit
	}
	for _, f := range workloadFigures[name] {
		fmt.Fprintf(w, "%-22s %14.6g %s\n", f, res.metrics[f], units[f])
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer()
		for _, d := range dropped {
			fmt.Fprintf(w, "dropped: %s\n", d)
		}
	}
	line := resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if !cfg.traced {
			fmt.Fprintf(w, "%-22s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fail(err) // a map of finite floats and strings always marshals
	}
	fmt.Fprintln(w, string(out))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// opTimes collects the wall and CPU time of every run of each operation
// of a workload's rounds. A round's time is the sum, over its
// operations, of the median run times each operation accumulates per
// round: a burst from the host's other tenants slows a few runs, which
// the medians drop, where it would move the total of a single round.
type opTimes struct {
	wall, cpu map[string][]float64
}

func newOpTimes() *opTimes {
	return &opTimes{wall: map[string][]float64{}, cpu: map[string][]float64{}}
}

// add records one run of op.
func (t *opTimes) add(op string, wallS, cpuS float64) {
	t.wall[op] = append(t.wall[op], wallS)
	t.cpu[op] = append(t.cpu[op], cpuS)
}

// round returns the wall and CPU time of one of rounds rounds: each
// operation's median time, times the runs of it per round, summed.
func (t *opTimes) round(rounds int) (wallS, cpuS float64) {
	for op, ws := range t.wall {
		per := float64(len(ws)) / float64(rounds)
		wallS += per * median(ws)
		cpuS += per * median(t.cpu[op])
	}
	return wallS, cpuS
}

// timeUp reports whether the measured time is spent; at least one round
// always runs.
func timeUp(start time.Time, seconds float64, rounds int) bool {
	return rounds > 0 && time.Since(start).Seconds() >= seconds
}

// nproc is the host parallelism every workload sizes its pools by.
func nproc() int { return runtime.NumCPU() }
