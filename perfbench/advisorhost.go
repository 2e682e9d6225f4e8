package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"tiling3d/internal/advisor"
	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/deps"
	"tiling3d/internal/ir"
	"tiling3d/internal/lang"
	"tiling3d/internal/stencil"
	"tiling3d/internal/transform"
)

// The advisor-host geometry: a set-associative, write-allocate host
// hierarchy. 32 KiB is a power of two, so every selection method
// accepts it.
var (
	advL1 = advisor.Geometry{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, WriteAllocate: true}
	advL2 = advisor.Geometry{SizeBytes: 2 << 20, LineBytes: 64, Assoc: 16, WriteAllocate: true}

	advMethods = []string{"Orig", "Euc3D", "GcdPad", "Pad"}
	advKernels = []string{"jacobi", "redblack", "resid"}
)

const (
	advRepeats = 5 // requests per round repeating an earlier key of the round (~30%)
	advStride  = 5 // Latin-square step; coprime with the 12 kernel x method pairs
	advNMin    = 100
	advNMax    = 250
	// advK is the third extent of every request: smaller than the
	// paper's 30 so that one round of requests takes about two seconds.
	advK          = 20
	advWarmN      = 32 // size of the set-up's warm-up requests
	advProbeCount = 6  // simulated keys whose layers the traced run probes
	advSetups     = 10 // server start-ups timed before the rounds, besides each round's own
)

// advListings are the program listings of the stream: stencils in the
// repository's input language, planned and certified but never
// simulated.
var advListings = []string{
	"do K = 2, N-1\n  do J = 2, N-1\n    do I = 2, N-1\n      A(I,J,K) = B(I-1,J,K) + B(I+1,J,K) + B(I,J-1,K) + B(I,J+1,K) + B(I,J,K-1) + B(I,J,K+1)\n",
	"do K = 2, N-1\n  do J = 2, N-1\n    do I = 2, N-1\n      A(I,J,K) = B(I,J,K) + B(I-1,J,K) + B(I+1,J,K) + B(I,J-1,K) + B(I,J+1,K)\n",
}

// advKeys are the simulated keys of every round: each kernel x method
// pair once, at a size of its own. The sizes cut advNMin..advNMax into
// one stratum per pair, assigned by a Latin-square step so that every
// kernel and every method gets small and large sizes. They are fixed,
// not drawn by the seed: a key's simulation time moves erratically with
// N (from 3.6 to 146 Mflop/s among the 84 keys of seven sizes on the
// reference host), so a run of seeded sizes measures which sizes the
// seed drew, not the advisor.
func advKeys() []advisor.PlanRequest {
	pairs := len(advKernels) * len(advMethods)
	width := float64(advNMax-advNMin) / float64(pairs)
	var reqs []advisor.PlanRequest
	for i := 0; i < pairs; i++ {
		l2 := advL2
		reqs = append(reqs, advisor.PlanRequest{
			Kernel: advKernels[i/len(advMethods)],
			Method: advMethods[i%len(advMethods)],
			N:      advNMin + int(width*(float64((i*advStride)%pairs)+0.5)),
			K:      advK, L1: advL1, L2: &l2,
		})
	}
	return reqs
}

// advStream generates one round's requests from rng: the advKeys, a
// program listing (seeded text, size and method), and advRepeats repeats
// of earlier requests of the round, in a seeded order.
func advStream(rng *rand.Rand) []advisor.PlanRequest {
	reqs := advKeys()
	n := advNMin + rng.Intn(advNMax-advNMin+1)
	l2 := advL2
	reqs = append(reqs, advisor.PlanRequest{
		Program: advListings[rng.Intn(len(advListings))],
		Params:  map[string]int{"N": n},
		N:       n, K: advK, L1: advL1, L2: &l2,
		Method: advMethods[rng.Intn(len(advMethods))],
	})
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for r := 0; r < advRepeats; r++ {
		at := 1 + rng.Intn(len(reqs))
		rep := reqs[rng.Intn(at)]
		reqs = append(reqs[:at], append([]advisor.PlanRequest{rep}, reqs[at:]...)...)
	}
	return reqs
}

// advAnswer is one request's outcome as the client saw it.
type advAnswer struct {
	req    advisor.PlanRequest
	status int
	resp   advisor.PlanResponse
	ms     float64
}

// advServer is one in-process advisor on a loopback listener.
type advServer struct {
	srv    *advisor.Server
	hs     *http.Server
	url    string
	served chan error
}

func startAdvisor() (*advServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("advisor listener: %w", err)
	}
	srv := advisor.NewServer(advisor.Config{Workers: nproc(), Log: log.New(io.Discard, "", 0)})
	s := &advServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the advisor and waits for its serve loop to return.
func (s *advServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// health fetches /healthz.
func health(c *http.Client, url string) (map[string]any, error) {
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h, nil
}

// post sends one plan request and decodes the answer.
func post(c *http.Client, url string, req advisor.PlanRequest) (advAnswer, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return advAnswer{}, err
	}
	start := time.Now()
	resp, err := c.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return advAnswer{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return advAnswer{}, err
	}
	a := advAnswer{req: req, status: resp.StatusCode, ms: 1e3 * since(start)}
	if a.status == http.StatusOK {
		if err := json.Unmarshal(data, &a.resp); err != nil {
			return advAnswer{}, fmt.Errorf("decode plan answer: %w", err)
		}
	}
	return a, nil
}

func runAdvisorHost(cfg runConfig, rec *recorder) (*result, error) {
	res := newResult()
	res.host = newHostRecord()
	rng := rand.New(rand.NewSource(cfg.seed))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc()}}
	defer client.CloseIdleConnections()
	pause := readGCPause()
	heap := startHeapSampler()

	// Set-up: start a fresh server (cold result cache), wait until it
	// answers, and warm it with one small simulated request per kernel.
	// Every round starts its server this way; so do advSetups start-ups
	// before the rounds.
	var setups []float64
	setup := func(op string) (*advServer, error) {
		var srv *advServer
		var err error
		setups = append(setups, cpuOf(func() {
			rec.do(0, "workload", "setup", op, func(int) {
				if srv, err = startAdvisor(); err != nil {
					return
				}
				if _, err = health(client, srv.url); err != nil {
					return
				}
				for _, k := range advKernels {
					l2 := advL2
					var a advAnswer
					a, err = post(client, srv.url, advisor.PlanRequest{Kernel: k, Method: "Orig", N: advWarmN, K: advK, L1: advL1, L2: &l2})
					if err == nil && (a.status != http.StatusOK || a.resp.Degraded) {
						err = fmt.Errorf("advisor warm-up %s answered status %d, degraded %v", k, a.status, a.resp.Degraded)
					}
					if err != nil {
						return
					}
				}
			})
		}))
		if err != nil && srv != nil {
			client.CloseIdleConnections()
			srv.stop()
		}
		return srv, err
	}
	for i := 0; i < advSetups; i++ {
		srv, err := setup(fmt.Sprint(i))
		if err == nil {
			client.CloseIdleConnections()
			err = srv.stop()
		}
		if err != nil {
			return nil, err
		}
	}

	// Rounds: a fresh server answers one advStream in a closed loop of
	// nproc clients, each sending its next request only after the
	// previous answer arrived. A round's time runs from the first send to
	// the last answer.
	roundFlops := 0.0
	for _, k := range advKeys() {
		opt, kern, m, err := advOptions(k)
		if err != nil {
			return nil, err
		}
		roundFlops += float64(bench.SimulateStats(kern, m, k.N, opt).Flops)
	}
	times := newOpTimes()
	var answers []advAnswer
	var waiting, allocs []float64
	measured := 0.0
	start := time.Now()
	for r := 0; !timeUp(start, cfg.seconds, r); r++ {
		srv, err := setup(fmt.Sprintf("round %d", r))
		if err != nil {
			return nil, err
		}
		reqs := advStream(rng)
		stopSampler := make(chan struct{})
		var sampler sync.WaitGroup
		if cfg.traced {
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				tick := time.NewTicker(25 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stopSampler:
						return
					case <-tick.C:
						if h, err := health(client, srv.url); err == nil {
							if v, ok := h["pool_waiting"].(float64); ok {
								waiting = append(waiting, v)
							}
						}
					}
				}
			}()
		}
		var mu sync.Mutex
		next := 0
		round := make([]advAnswer, 0, len(reqs))
		errs := make([]error, nproc())
		c0, a0 := cpuSeconds(), allocatedMB()
		wall := rec.do(0, "workload", "round", fmt.Sprint(r), func(id int) {
			var wg sync.WaitGroup
			for c := 0; c < nproc(); c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for {
						mu.Lock()
						i := next
						next++
						mu.Unlock()
						if i >= len(reqs) {
							return
						}
						var a advAnswer
						var err error
						rec.do(id, "advisor", "POST /v1/plan", fmt.Sprintf("r%d-q%d", r, i), func(int) {
							a, err = post(client, srv.url, reqs[i])
						})
						if err != nil {
							errs[c] = err
							return
						}
						mu.Lock()
						round = append(round, a)
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
		})
		times.add("round", wall, cpuSeconds()-c0)
		allocs = append(allocs, allocatedMB()-a0)
		measured += wall
		close(stopSampler)
		sampler.Wait()
		client.CloseIdleConnections()
		if err := srv.stop(); err != nil {
			return nil, fmt.Errorf("advisor shutdown: %w", err)
		}
		if err := errors.Join(errs...); err != nil {
			return nil, fmt.Errorf("advisor-host round %d: %w", r, err)
		}
		answers = append(answers, round...)
	}
	heap.finish(res.metrics)

	// Tally the answers; the gate below checks every simulated one.
	var lat []float64
	cached, shed := 0, 0
	for _, a := range answers {
		res.attempted++
		lat = append(lat, a.ms)
		switch {
		case a.status == http.StatusTooManyRequests:
			shed++
			res.failed++
		case a.status != http.StatusOK || a.resp.Degraded:
			res.failed++
		case a.resp.Cached:
			cached++
		}
	}

	if cfg.traced {
		res.metrics["trace.overhead_ratio"] = rec.overheadRatio(measured)
		if err := probeAdvisorLayers(rec, cfg.seed, answers, res.metrics); err != nil {
			return nil, err
		}
		res.metrics["advisor.pool_waiting_mean"] = mean(waiting)
		pause.report(res.metrics)
	}

	if err := checkAdvisorAnswers(answers); err != nil {
		return nil, err
	}
	res.host.finish()

	m := res.metrics
	m["setup_s"] = median(setups)
	m["round_s"], m["round_cpu_s"] = times.round(len(allocs))
	m["runtime.alloc_mb"] = median(allocs)
	m["mflops"] = roundFlops / m["round_cpu_s"] / 1e6
	m["plan_p50_ms"] = median(lat)
	m["plan_p90_ms"] = quantile(lat, 0.9)
	m["plan_samples"] = float64(len(lat))
	m["plan_rps"] = float64(len(answers)) / measured
	m["failed_ratio"] = float64(res.failed) / float64(res.attempted)
	m["advisor.cache_hit_ratio"] = float64(cached) / float64(len(answers))
	m["advisor.shed_ratio"] = float64(shed) / float64(len(answers))
	return res, nil
}

// advOptions mirrors the advisor backend's simulation options for one
// request: the request's hierarchy, K and method, one measured sweep.
func advOptions(req advisor.PlanRequest) (bench.Options, stencil.Kernel, core.Method, error) {
	k, err := stencil.ParseKernel(req.Kernel)
	if err != nil {
		return bench.Options{}, 0, 0, err
	}
	m, err := core.ParseMethod(req.Method)
	if err != nil {
		return bench.Options{}, 0, 0, err
	}
	geo := func(g advisor.Geometry) cache.Config {
		return cache.Config{SizeBytes: g.SizeBytes, LineBytes: g.LineBytes, Assoc: g.Assoc, WriteAllocate: g.WriteAllocate}
	}
	opt := bench.Options{
		L1: geo(req.L1), L2: geo(*req.L2), K: req.K,
		NMin: req.N, NMax: req.N, NStep: 1,
		Methods: []core.Method{m}, Coeffs: stencil.DefaultCoeffs(), Sweeps: 1, Workers: 1,
	}
	return opt, k, m, nil
}

// checkAdvisorAnswers is the advisor-host output gate: no answer may be
// degraded (the run injects no faults), listings get a certified-or-
// explained analytic plan, and every simulated answer must equal
// bench.SimulateStats for its key. Distinct keys are recomputed off the
// clock on nproc goroutines.
func checkAdvisorAnswers(answers []advAnswer) error {
	type key struct {
		kernel, method string
		n              int
	}
	want := map[key]bench.SimResult{}
	var keys []key
	for _, a := range answers {
		if a.status != http.StatusOK {
			continue
		}
		if a.resp.Degraded {
			return fmt.Errorf("advisor-host gate: fault-free answer for %s/%s/N=%d degraded: %s", a.req.Kernel, a.req.Method, a.req.N, a.resp.DegradedReason)
		}
		if a.resp.Miss == nil {
			return fmt.Errorf("advisor-host gate: answer without a miss prediction")
		}
		if a.req.Program != "" {
			if a.resp.Miss.Source != "analytic" || a.resp.Verdict == "" {
				return fmt.Errorf("advisor-host gate: listing answered with source %q, verdict %q", a.resp.Miss.Source, a.resp.Verdict)
			}
			continue
		}
		if a.resp.Miss.Source != "simulated" {
			return fmt.Errorf("advisor-host gate: %s/%s/N=%d answered from %q", a.req.Kernel, a.req.Method, a.req.N, a.resp.Miss.Source)
		}
		k := key{a.req.Kernel, a.req.Method, a.req.N}
		if _, ok := want[k]; !ok {
			want[k] = bench.SimResult{}
			keys = append(keys, k)
		}
	}
	results := make([]bench.SimResult, len(keys))
	errs := make([]error, len(keys))
	cache.ForEach(len(keys), nproc(), func(i int) {
		l2 := advL2
		opt, kern, m, err := advOptions(advisor.PlanRequest{Kernel: keys[i].kernel, Method: keys[i].method, N: keys[i].n, K: advK, L1: advL1, L2: &l2})
		if err != nil {
			errs[i] = err
			return
		}
		results[i] = bench.SimulateStats(kern, m, keys[i].n, opt)
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("advisor-host gate: %w", err)
	}
	for i, k := range keys {
		want[k] = results[i]
	}
	for _, a := range answers {
		if a.status != http.StatusOK || a.req.Program != "" {
			continue
		}
		w := want[key{a.req.Kernel, a.req.Method, a.req.N}]
		got := a.resp.Miss
		if got.L1 == nil || got.L2 == nil ||
			got.L1.Accesses != w.L1.Accesses() || got.L1.Misses != w.L1.Misses() ||
			got.L2.Accesses != w.L2.Accesses() || got.L2.Misses != w.L2.Misses() || got.Flops != w.Flops {
			return fmt.Errorf("advisor-host gate: %s/%s/N=%d answered %+v %+v flops %d, SimulateStats gives L1 %+v L2 %+v flops %d",
				a.req.Kernel, a.req.Method, a.req.N, got.L1, got.L2, got.Flops, w.L1, w.L2, w.Flops)
		}
	}
	return nil
}

// probeAdvisorLayers times the layers behind a plan answer on a seeded
// sample of the run's requests: the static pipeline (lang, deps, core,
// transform, certify), the backend's Static and Simulate calls, and the
// simulator layers on the advisor's set-associative hierarchy.
func probeAdvisorLayers(rec *recorder, seed int64, answers []advAnswer, metrics map[string]float64) error {
	var sims, listings []advisor.PlanRequest
	seen := map[string]bool{}
	for _, a := range answers {
		if a.status != http.StatusOK || seen[a.resp.Key] {
			continue
		}
		seen[a.resp.Key] = true
		if a.req.Program != "" {
			listings = append(listings, a.req)
		} else {
			sims = append(sims, a.req)
		}
	}
	rng := rand.New(rand.NewSource(seed + 13))
	rng.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
	if len(sims) > advProbeCount {
		sims = sims[:advProbeCount]
	}
	if len(listings) == 0 {
		// Every round's stream may miss the listing share; the parser
		// is still probed on the stream's listing texts.
		l2 := advL2
		listings = append(listings, advisor.PlanRequest{Program: advListings[0], Params: map[string]int{"N": advNMin}, N: advNMin, K: advK, L1: advL1, L2: &l2, Method: "Euc3D"})
	}

	var depsUs, applyUs, certifyUs, parseUs, staticMs, simMs []float64
	pipeline := func(parent int, op string, nest *ir.Nest, method string, n int) error {
		var tab *deps.Table
		var err error
		depsUs = append(depsUs, 1e6*rec.do(parent, "deps", "Dependences", op, func(int) { tab, err = deps.Dependences(nest) }))
		if err != nil {
			return fmt.Errorf("probe %s: dependences: %w", op, err)
		}
		st, err := ir.Analyze(nest)
		if err != nil || tab.HasUnknown() || len(tab.Carried()) > 0 {
			return nil // the advisor refuses to tile these nests; nothing to transform
		}
		m, err := core.ParseMethod(method)
		if err != nil {
			return err
		}
		plan, err := core.SelectChecked(m, advL1.SizeBytes/8, n, n, st)
		if err != nil {
			return fmt.Errorf("probe %s: select: %w", op, err)
		}
		var after *ir.Nest
		applyUs = append(applyUs, 1e6*rec.do(parent, "transform", "ApplyPlan", op, func(int) { after, err = transform.ApplyPlan(nest, plan) }))
		if err != nil {
			return fmt.Errorf("probe %s: apply: %w", op, err)
		}
		certifyUs = append(certifyUs, 1e6*rec.do(parent, "deps", "Certify", op, func(int) { err = deps.Certify(nest, after) }))
		if err != nil {
			return fmt.Errorf("probe %s: certify: %w", op, err)
		}
		return nil
	}

	backend := advisor.NewBackend(30*time.Second, 0, 50*time.Millisecond)
	var perr error
	for i, req := range append(append([]advisor.PlanRequest(nil), sims...), listings...) {
		op := fmt.Sprintf("probe-%d", i)
		rec.do(0, "probe", "request", op, func(root int) {
			staticMs = append(staticMs, 1e3*rec.do(root, "advisor", "Backend.Static", op, func(int) {
				_, perr = backend.Static(req)
			}))
			if perr != nil {
				return
			}
			var nests []*ir.Nest
			if req.Program != "" {
				var prog *lang.Program
				parseUs = append(parseUs, 1e6*rec.do(root, "lang", "ParseProgramNamed", op, func(int) {
					prog, perr = lang.ParseProgramNamed("request.st", req.Program, map[string]int{"N": req.N, "M": req.N, "TSTEPS": 1})
				}))
				if perr != nil {
					return
				}
				nests = prog.Nests
			} else {
				switch req.Kernel {
				case "jacobi":
					nests = []*ir.Nest{ir.JacobiNest(req.N, req.K)}
				case "redblack":
					nests = []*ir.Nest{ir.RedBlackNest(req.N, req.K)}
				default:
					nests = []*ir.Nest{ir.ResidNest(req.N, req.K)}
				}
				simMs = append(simMs, 1e3*rec.do(root, "advisor", "Backend.Simulate", op, func(int) {
					_, perr = backend.Simulate(context.Background(), req)
				}))
				if perr != nil {
					return
				}
			}
			for _, nest := range nests {
				if perr = pipeline(root, op, nest, req.Method, req.N); perr != nil {
					return
				}
			}
		})
		if perr != nil {
			return fmt.Errorf("advisor probe: %w", perr)
		}
	}
	metrics["deps.dependences_us"] = median(depsUs)
	metrics["transform.apply_us"] = median(applyUs)
	metrics["deps.certify_us"] = median(certifyUs)
	metrics["lang.parse_us"] = median(parseUs)
	metrics["advisor.static_ms"] = median(staticMs)
	metrics["advisor.simulate_ms"] = median(simMs)

	// The simulator layers, on the advisor's hierarchy.
	var pts []point
	var opt bench.Options
	var selects []float64
	for _, req := range sims {
		o, k, m, err := advOptions(req)
		if err != nil {
			return err
		}
		opt = o
		p := point{k, m, req.N}
		_, us := timeSelect(rec, 0, opt, p)
		selects = append(selects, us)
		pts = append(pts, p)
	}
	if len(pts) == 0 {
		return fmt.Errorf("advisor probe: no simulated answer to probe")
	}
	metrics["core.select_us"] = median(selects)
	var tally diagTally
	if err := probeSimLayers(rec, opt, pts, &tally, metrics); err != nil {
		return err
	}
	tally.report(metrics)
	return nil
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
