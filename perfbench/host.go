package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cacheLevel is one entry of /sys/devices/system/cpu/cpu0/cache.
type cacheLevel struct {
	Level     string `json:"level"`
	Type      string `json:"type"`
	Size      string `json:"size"`
	Ways      string `json:"ways"`
	LineBytes string `json:"line_bytes"`
}

// hostRecord is printed with every result.
type hostRecord struct {
	CPU        string       `json:"cpu"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go"`
	Caches     []cacheLevel `json:"caches"`
	// StealTicks is the host's /proc/stat steal time, in clock ticks,
	// accumulated between the start and the end of the run.
	StealTicks int64 `json:"steal_ticks"`
	// GridBytes, for native-solve, is the largest kernel cell's array
	// memory next to the host's L2 and L3 sizes.
	GridBytes map[string]int64 `json:"grid_bytes,omitempty"`
}

// newHostRecord describes the host; call finish at the end of the run.
func newHostRecord() hostRecord {
	return hostRecord{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Caches:     hostCaches(),
		StealTicks: -stealTicks(),
	}
}

func (h *hostRecord) finish() { h.StealTicks += stealTicks() }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func hostCaches() []cacheLevel {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []cacheLevel
	for _, d := range dirs {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		out = append(out, cacheLevel{
			Level: read("level"), Type: read("type"), Size: read("size"),
			Ways: read("ways_of_associativity"), LineBytes: read("coherency_line_size"),
		})
	}
	return out
}

// cacheBytes returns the size of the host's unified cache at level, 0
// when unknown.
func cacheBytes(caches []cacheLevel, level string) int64 {
	for _, c := range caches {
		if c.Level != level || c.Type != "Unified" {
			continue
		}
		s := c.Size
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v * mult
		}
	}
	return 0
}

// stealTicks reads the aggregate steal time from /proc/stat (0 when
// unreadable).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuOf runs fn and returns the process CPU time it took. The host's
// steal does not count as CPU time, so set-ups and rounds measured this
// way stay comparable between runs the host's other tenants slow by
// different amounts.
func cpuOf(fn func()) float64 {
	c0 := cpuSeconds()
	fn()
	return cpuSeconds() - c0
}

// heapSampler samples the live heap (the heap the last garbage
// collection found reachable) every 5 ms from runtime/metrics, which does
// not stop the world.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // MB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and reports the live heap's median over time,
// which a few short-lived large points barely move, and its peak.
func (h *heapSampler) finish(metrics map[string]float64) {
	close(h.stop)
	h.done.Wait()
	metrics["runtime.heap_mb"] = median(h.samples)
	metrics["runtime.peak_heap_mb"] = quantile(h.samples, 1)
}

// allocatedMB returns the bytes allocated on the heap since the process
// started, in MB: a count that, unlike the live heap, does not depend on
// when collections run.
func allocatedMB() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// gcPause is the total stop-the-world pause so far.
type gcPause uint64

func readGCPause() gcPause {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcPause(ms.PauseTotalNs)
}

// report adds the pause since p to metrics.
func (p gcPause) report(metrics map[string]float64) {
	metrics["runtime.gc_pause_ms"] = float64(readGCPause()-p) / 1e6
}
