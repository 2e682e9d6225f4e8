package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// Warm-baseline sharing must be invisible in the results: the sweep
// engine may copy a lead point's result to plan-identical followers,
// but every number a sweep produces has to be bit-identical with the
// feature off. These tests pin that, the diagnostic surface, and the
// safety rules (degraded leads don't propagate, paranoid points never
// follow).

// shareGroups recomputes the sweep engine's plan-identity grouping for
// a kernel: map from group key to the (method, n) members in todo
// order. Mirrors simGrid's grouping so tests can locate real groups.
func shareGroups(k stencil.Kernel, opt Options) map[string][]PointKey {
	groups := map[string][]PointKey{}
	for _, m := range opt.Methods {
		for _, n := range opt.Sizes() {
			plan, ok := planShareKey(k, m, n, opt)
			if !ok {
				continue
			}
			gk := fmt.Sprintf("%+v|%d", plan, n)
			groups[gk] = append(groups[gk], PointKey{Kernel: k.String(), Method: m.String(), N: n})
		}
	}
	return groups
}

// expectedShares counts the followers grouping should produce.
func expectedShares(k stencil.Kernel, opt Options) int {
	shares := 0
	for _, g := range shareGroups(k, opt) {
		shares += len(g) - 1
	}
	return shares
}

// stripShared clears the Shared marker so outcomes from a sharing run
// compare equal to a non-sharing run: the marker is the only field
// allowed to differ.
func stripShared(outs []PointOutcome) []PointOutcome {
	cp := make([]PointOutcome, len(outs))
	for i, o := range outs {
		o.Shared = ""
		cp[i] = o
	}
	return cp
}

func TestWarmShareIdentical(t *testing.T) {
	opt := smallOptions()
	totalExpected, totalShared := 0, 0
	for _, k := range stencil.Kernels() {
		var mu sync.Mutex
		shared := 0
		on := opt
		on.DiagHook = func(d PointDiag) {
			mu.Lock()
			if d.Shared != "" {
				shared++
			}
			mu.Unlock()
		}
		off := opt
		off.DisableWarmShare = true

		a, errA := simGrid(k, on)
		b, errB := simGrid(k, off)
		if errA != nil || errB != nil {
			t.Fatalf("%s: simGrid errors: %v, %v", k, errA, errB)
		}
		sa, sb := stripShared(a), stripShared(b)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Errorf("%s: point %s diverged under warm sharing:\n  on  %+v\n  off %+v",
					k, sa[i].Key, sa[i], sb[i])
			}
		}
		want := expectedShares(k, opt)
		if shared != want {
			t.Errorf("%s: shared %d points, grouping predicts %d", k, shared, want)
		}
		totalExpected += want
		totalShared += shared
	}
	if totalExpected == 0 {
		t.Fatal("no plan-identical groups in the small grid: the sharing path was never exercised")
	}
	if totalShared == 0 {
		t.Fatal("warm sharing never fired")
	}
}

// TestWarmShareParanoidNeverFollows: with every point paranoid, no
// point may copy a result (paranoid points exist to exercise and cross-
// check the full simulation path), and results still match.
func TestWarmShareParanoidNeverFollows(t *testing.T) {
	k := stencil.Jacobi
	opt := smallOptions()
	opt.ParanoidEvery = 1
	var mu sync.Mutex
	shared := 0
	opt.DiagHook = func(d PointDiag) {
		mu.Lock()
		if d.Shared != "" {
			shared++
		}
		mu.Unlock()
	}
	outs, err := simGrid(k, opt)
	if err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	if shared != 0 {
		t.Errorf("paranoid points shared %d results; they must all simulate", shared)
	}
	plain := smallOptions()
	plain.DisableWarmShare = true
	ref, err := simGrid(k, plain)
	if err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	for i := range outs {
		if outs[i] != ref[i] {
			t.Errorf("point %s diverged under all-paranoid sweep", outs[i].Key)
		}
	}
}

// TestWarmShareDegradedLeadFallback: a lead that only produced a
// degraded (steady-disabled fallback) result must not hand that result
// to its followers — they run their own ladder. The injected fault
// panics only the steady-enabled attempt of the lead point, so the lead
// degrades while its followers' own attempts succeed cleanly.
func TestWarmShareDegradedLeadFallback(t *testing.T) {
	k := stencil.Jacobi
	opt := smallOptions()

	// Find a group with at least one follower; its lead is the first
	// member in method order.
	var lead PointKey
	var followers []PointKey
	for _, g := range shareGroups(k, opt) {
		if len(g) > 1 {
			lead, followers = g[0], g[1:]
			break
		}
	}
	if lead == (PointKey{}) {
		t.Fatal("no shareable group in the small grid")
	}

	opt.faultInject = func(o Options, m core.Method, n int) {
		if !o.DisableSteady && m.String() == lead.Method && n == lead.N {
			panic("injected: lead's primary attempt")
		}
	}
	var mu sync.Mutex
	diags := map[PointKey]PointDiag{}
	opt.DiagHook = func(d PointDiag) {
		mu.Lock()
		diags[d.Key] = d
		mu.Unlock()
	}
	outs, err := simGrid(k, opt)
	if err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	ld, ok := diags[lead]
	if !ok || !ld.Degraded {
		t.Fatalf("lead %s did not degrade: %+v", lead, ld)
	}
	if !strings.Contains(ld.Err, "injected") {
		t.Errorf("lead error does not carry the injected fault: %q", ld.Err)
	}
	for _, f := range followers {
		fd, ok := diags[f]
		if !ok {
			t.Fatalf("follower %s produced no diagnostic", f)
		}
		if fd.Shared != "" {
			t.Errorf("follower %s copied a degraded lead's result", f)
		}
		if fd.Degraded || fd.Failed {
			t.Errorf("follower %s should have simulated cleanly: %+v", f, fd)
		}
	}

	// Results must still be exactly the no-fault, no-sharing numbers
	// (the degraded lead's fallback is itself exact).
	plain := smallOptions()
	plain.DisableWarmShare = true
	ref, err := simGrid(k, plain)
	if err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	sa := stripShared(outs)
	for i := range sa {
		got := sa[i]
		got.Degraded, got.Err = false, ""
		if got != ref[i] {
			t.Errorf("point %s result diverged under degraded lead:\n  got %+v\n  ref %+v",
				got.Key, sa[i], ref[i])
		}
	}
}

// TestWarmShareDiagHookCoverage: every point of a sweep produces
// exactly one diagnostic record.
func TestWarmShareDiagHookCoverage(t *testing.T) {
	k := stencil.Resid
	opt := smallOptions()
	var mu sync.Mutex
	seen := map[PointKey]int{}
	opt.DiagHook = func(d PointDiag) {
		mu.Lock()
		seen[d.Key]++
		mu.Unlock()
	}
	if _, err := simGrid(k, opt); err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	want := len(opt.Methods) * len(opt.Sizes())
	if len(seen) != want {
		t.Fatalf("DiagHook covered %d points, want %d", len(seen), want)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("point %s fired %d diagnostics", key, n)
		}
	}
}

// TestWarmShareResumeInvariant: which points are Shared must not depend
// on where a sweep was cut. A compacted warm-sharing journal with one
// point's line removed — a follower's, or its lead's — must resume to a
// file byte-identical to the uninterrupted run's, also under paranoid
// sampling (paranoid points never follow, so choosing them by anything
// but grid slot would move the Shared labels).
func TestWarmShareResumeInvariant(t *testing.T) {
	k := stencil.Jacobi
	base := Options{
		L1:      cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1},
		L2:      cache.UltraSparc2L2(),
		K:       8,
		NMin:    40,
		NMax:    56,
		NStep:   8,
		Methods: []core.Method{core.MethodEuc3D, core.MethodPad},
		Coeffs:  stencil.DefaultCoeffs(),
		Sweeps:  1,
		Workers: 1,
	}
	dir := t.TempDir()
	run := func(name string, opt Options, resume bool) ([]PointOutcome, []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		j, err := OpenJournal(path, opt, resume)
		if err != nil {
			t.Fatalf("%s: journal: %v", name, err)
		}
		opt.Journal = j
		outs, err := simGrid(k, opt)
		if err != nil {
			t.Fatalf("%s: simGrid: %v", name, err)
		}
		if err := j.Compact(); err != nil {
			t.Fatalf("%s: compact: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return outs, data
	}

	// Locate the grid's plan-identical group from an uninterrupted run.
	outs, _ := run("probe", base, false)
	var lead, follower PointKey
	for _, o := range outs {
		if o.Shared != "" {
			follower = o.Key
			lead = PointKey{Kernel: o.Key.Kernel, Method: o.Shared, N: o.Key.N}
			break
		}
	}
	if follower == (PointKey{}) {
		t.Fatal("no point was shared: the grid has no plan-identical group")
	}

	for _, tc := range []struct {
		name     string
		paranoid int
		drop     PointKey
	}{
		{"follower cut", 0, follower},
		{"lead cut", 0, lead},
		{"follower cut, paranoid every 2", 2, follower},
		{"follower cut, paranoid every 3", 3, follower},
	} {
		opt := base
		opt.ParanoidEvery = tc.paranoid
		name := strings.NewReplacer(" ", "_", ",", "").Replace(tc.name)
		_, clean := run(name+".clean", opt, false)

		// Cut: the clean journal minus the dropped point's line.
		lines := bytes.SplitAfter(clean, []byte("\n"))
		var cut []byte
		dropped := 0
		for i, ln := range lines {
			var o PointOutcome
			if i > 0 && json.Unmarshal(ln, &o) == nil && o.Key == tc.drop {
				dropped++
				continue
			}
			cut = append(cut, ln...)
		}
		if dropped != 1 {
			t.Fatalf("%s: %d journal lines for %s, want 1", tc.name, dropped, tc.drop)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".cut"), cut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, resumed := run(name+".cut", opt, true); !bytes.Equal(resumed, clean) {
			t.Errorf("%s: resumed journal differs from the uninterrupted run:\n--- clean ---\n%s--- resumed ---\n%s",
				tc.name, clean, resumed)
		}
	}
}
