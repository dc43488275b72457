package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
		n       int
	}{
		{"empty", nil, 0.5, 0, 0},
		{"single", []float64{3}, 0.9, 3, 1},
		{"median of ten", ten, 0.5, 5, 10},
		{"p90 of ten is the ninth", ten, 0.9, 9, 10},
		{"p100 is the max", ten, 1, 10, 10},
		{"tiny p is the min", ten, 0.01, 1, 10},
		{"median of odd count", []float64{3, 1, 2}, 0.5, 2, 3},
		{"median of four takes the lower middle", []float64{4, 1, 3, 2}, 0.5, 2, 4},
	}
	for _, c := range cases {
		got, n := nearestRank(c.samples, c.p)
		if got != c.want || n != c.n {
			t.Errorf("%s: nearestRank(%v, %g) = (%g, %d), want (%g, %d)", c.name, c.samples, c.p, got, n, c.want, c.n)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got, n := nearestRank(hundred, 0.9); got != 90 || n != 100 {
		t.Errorf("p90 of 1..100 = (%g, %d), want (90, 100)", got, n)
	}
	if ten[0] != 10 {
		t.Error("nearestRank reordered its input")
	}
}

// TestStepP50Geomean checks the gated op time: each schedule step's
// median, then their geometric mean, with every op as a sample; ops
// without steps fall back to the plain median.
func TestStepP50Geomean(t *testing.T) {
	p := newPass()
	for _, d := range []float64{0.1, 0.3, 0.2} {
		p.step[1e-2] = append(p.step[1e-2], d)
	}
	for _, d := range []float64{0.8, 0.9, 0.7, 5} {
		p.step[1e-3] = append(p.step[1e-3], d)
	}
	got, n := p.stepP50Geomean()
	if want := math.Sqrt(0.2 * 0.8); math.Abs(got-want) > 1e-15 || n != 7 {
		t.Errorf("stepP50Geomean = (%g, %d), want (%g, 7)", got, n, want)
	}
	pk := newPass()
	for _, d := range []int{3, 1, 2} {
		pk.record("", time.Duration(d)*time.Second)
	}
	if got, n := pk.stepP50Geomean(); got != 2 || n != 3 {
		t.Errorf("stepless stepP50Geomean = (%g, %d), want (2, 3)", got, n)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a 0 = %g, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean() = %g, want 0", got)
	}
}

func TestUnionLength(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	cases := []struct {
		name string
		ivs  []interval
		want int // ms
	}{
		{"empty", nil, 0},
		{"one", []interval{ms(2, 5)}, 3},
		{"disjoint", []interval{ms(0, 1), ms(3, 6)}, 4},
		{"overlapping", []interval{ms(0, 4), ms(2, 6)}, 6},
		{"nested", []interval{ms(0, 10), ms(2, 3), ms(4, 9)}, 10},
		{"touching", []interval{ms(0, 2), ms(2, 5)}, 5},
		{"unsorted", []interval{ms(8, 9), ms(0, 2), ms(1, 3)}, 4},
		{"empty and inverted spans ignored", []interval{ms(1, 1), ms(5, 4), ms(6, 7)}, 1},
		{"empty span inside gap ignored", []interval{ms(0, 1), ms(2, 2), ms(3, 4)}, 2},
	}
	for _, c := range cases {
		got := unionLength(c.ivs)
		if want := time.Duration(c.want) * time.Millisecond; got != want {
			t.Errorf("%s: unionLength = %v, want %v", c.name, got, want)
		}
	}
	// Busy time counts overlap once per span; wall time never exceeds it.
	ivs := []interval{ms(0, 4), ms(2, 6), ms(10, 11)}
	if busy, wall := busyLength(ivs), unionLength(ivs); busy != 9*time.Millisecond || wall != 7*time.Millisecond {
		t.Errorf("busy, wall = %v, %v; want 9ms, 7ms", busy, wall)
	}
}

func TestCounterDeltas(t *testing.T) {
	before := counters{wireBytes: 1000, requests: 10, retryPasses: 1, failovers: 2, rateLimited: 3}
	after := counters{wireBytes: 1600, requests: 16, retryPasses: 1, failovers: 5, rateLimited: 3}
	want := counters{wireBytes: 600, requests: 6, failovers: 3}
	if got := after.since(before); got != want {
		t.Errorf("since = %+v, want %+v", got, want)
	}
	r0 := runtimeDelta{allocBytes: 100, gcCycles: 2, gcCPU: 0.5}
	r1 := runtimeDelta{allocBytes: 350, gcCycles: 5, gcCPU: 0.75}
	if got := r1.since(r0); got != (runtimeDelta{allocBytes: 250, gcCycles: 3, gcCPU: 0.25}) {
		t.Errorf("runtime since = %+v", got)
	}
}

// TestPerOpMetrics checks that per-layer totals become per-op means over
// the ops that completed, and that ratios use their own base.
func TestPerOpMetrics(t *testing.T) {
	plain, traced := newPass(), newPass()
	for range 4 {
		traced.record("", 100*time.Millisecond)
		plain.record("", 80*time.Millisecond)
	}
	plain.rt = runtimeDelta{gcCycles: 6, gcCPU: 0.2}
	traced.attempted, traced.failed = 5, 1
	traced.sums["objstore.gets_per_op"] = 10
	traced.sums["objstore.get_bytes"] = 2500
	traced.sums["qoi.estimate_wall_s"] = 0.2
	traced.looseness = []float64{3, 1, 2}
	rep := newReport(workload{name: "w"}, 1, nil, true)
	rep.perLayer(plain, traced)
	want := map[string]float64{
		"objstore.gets_per_op":       2.5,
		"objstore.bytes_per_get":     250,
		"qoi.estimate_wall_s":        0.05,
		"qoi.bound_looseness":        2,
		"runtime.gc_cycles_per_op":   1.5,
		"runtime.gc_cpu_s_per_op":    0.05,
		"bench.trace_overhead_ratio": 1.25,
		"storage.puts_per_op":        0,
	}
	for k, v := range want {
		got, ok := rep.Gated[k]
		if !ok || math.Abs(got.Value-v) > 1e-12 {
			t.Errorf("%s = %+v, want %g", k, got, v)
		}
	}
	if len(rep.Gated) != len(perLayerMetrics) {
		t.Errorf("traced run gates %d metrics, want all %d per-layer metrics", len(rep.Gated), len(perLayerMetrics))
	}
	if rep.Attempted != 5 || rep.Failed != 1 {
		t.Errorf("attempted, failed = %d, %d; want 5, 1", rep.Attempted, rep.Failed)
	}
}
