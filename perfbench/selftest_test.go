package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricCatalog checks the metric lists the program prints against
// BENCHMARK.json, name by name, with units and directions.
func TestMetricCatalog(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := f.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, g, d)
		}
	}
	pl := perLayer()
	if len(f.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(pl))
	}
	for i, d := range pl {
		if g := f.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, g, d)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
}

// resultLineOf renders res as the run would and decodes the last line.
func resultLineOf(t *testing.T, name string, cfg runConfig, res *result) resultLine {
	t.Helper()
	var buf bytes.Buffer
	printReport(&buf, name, cfg, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line %q: %v", name, lines[len(lines)-1], err)
	}
	return line
}

// TestWorkloadsBrief runs every workload briefly, traced, and checks
// both result lines it can print against BENCHMARK.json: every metric
// present with its unit, and every end-to-end metric nonzero.
func TestWorkloadsBrief(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range f.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{seed: defaultSeed, seconds: 0.1, traced: true, refPath: referencePath()}
			res, err := workloads[w.Name](cfg, newRecorder(true))
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			cfg.traced = false
			e2e := resultLineOf(t, w.Name, cfg, res)
			if len(e2e.Metrics) != len(f.EndToEnd) {
				t.Errorf("untraced line has %d metrics, want %d", len(e2e.Metrics), len(f.EndToEnd))
			}
			for _, d := range f.EndToEnd {
				got, ok := e2e.Metrics[d.Name]
				if !ok || got.Unit != d.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", d.Name, got, ok, d.Unit)
				}
			}
			cfg.traced = true
			layers := resultLineOf(t, w.Name, cfg, res)
			if len(layers.Metrics) != len(f.PerLayer) {
				t.Errorf("traced line has %d metrics, want %d", len(layers.Metrics), len(f.PerLayer))
			}
			for _, d := range f.PerLayer {
				if got, ok := layers.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", d.Name, got, ok, d.Unit)
				}
			}
		})
	}
}

// TestCorruptedReferenceFailsGate changes one miss count of the
// committed sim-table3 reference by one and checks that the default
// seed's run then fails its output gate.
func TestCorruptedReferenceFailsGate(t *testing.T) {
	b, err := os.ReadFile(referencePath())
	if err != nil {
		t.Fatal(err)
	}
	var ref simReference
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatal(err)
	}
	ref.Points[len(ref.Points)/2].L1.LoadMisses++
	b, err = json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corrupted.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: defaultSeed, seconds: 0.1, refPath: path}
	_, err = runSimTable3(cfg, newRecorder(false))
	if err == nil || !strings.Contains(err.Error(), "sim-table3 gate") {
		t.Fatalf("run against a corrupted reference returned %v, want a sim-table3 gate failure", err)
	}
}
