package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reportMetric is one metric in the full report, with the number of
// samples behind it (ops, set-ups or HTTP attempts).
type reportMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	OSArch     string `json:"osArch"`
	Seed       int64  `json:"seed"`
	// DatasetSeeds are the datagen seeds of the run's set-ups.
	DatasetSeeds []int64 `json:"datasetSeeds"`
}

// report is one workload's full outcome.
type report struct {
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Traced     bool           `json:"traced"`
	Provenance provenance     `json:"provenance"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	FailedOps  []string       `json:"failedOps,omitempty"`
	Setups     []float64      `json:"setupSeconds"`
	Metrics    []reportMetric `json:"metrics"`
	// Dominant names the layer holding the most wall time per op in a
	// traced run, with its share of the traced op time.
	Dominant string `json:"dominantLayer,omitempty"`

	// Gated is what the result line carries: every end-to-end metric of
	// an untraced run, or every per-layer metric of a traced one.
	Gated map[string]metricValue `json:"-"`
}

// perLayerMetrics are on the result line of every traced run, with their
// units. A layer a workload never reaches reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"core.iterations_per_op", "count"},
	{"core.plan_wall_s", "s"},
	{"core.commit_busy_s", "s"},
	{"core.commit_wall_s", "s"},
	{"qoi.estimate_busy_s", "s"},
	{"qoi.estimate_wall_s", "s"},
	{"qoi.bound_looseness", "ratio"},
	{"qoi.actual_to_tolerance_max", "ratio"},
	{"progressive.decode_busy_s", "s"},
	{"progressive.decode_wall_s", "s"},
	{"progressive.fragments_per_op", "count"},
	{"client.fetch_wall_s", "s"},
	{"client.rtt_p90_s", "s"},
	{"client.http_attempts_per_op", "count"},
	{"client.retry_passes_per_op", "count"},
	{"client.failovers_per_op", "count"},
	{"client.rate_limited_per_op", "count"},
	{"objstore.gets_per_op", "count"},
	{"objstore.get_busy_s", "s"},
	{"objstore.get_wall_s", "s"},
	{"objstore.bytes_per_get", "bytes"},
	{"server.handler_p90_s", "s"},
	{"server.rejected_per_op", "count"},
	{"server.queued_max", "count"},
	{"server.hot_cache_hit_ratio", "ratio"},
	{"server.store_reads_per_op", "count"},
	{"server.store_read_busy_s", "s"},
	{"mgard.decompose_s", "s"},
	{"progressive.encode_s", "s"},
	{"storage.write_s", "s"},
	{"storage.puts_per_op", "count"},
	{"storage.put_bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_s_per_op", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// dominantCandidates are the per-op wall times that compete for
// "dominant layer"; client.fetch_wall_s stands aside when object-store
// GETs, which it contains, were timed.
var dominantCandidates = []string{
	"core.plan_wall_s", "core.commit_wall_s", "qoi.estimate_wall_s",
	"progressive.decode_wall_s", "client.fetch_wall_s", "objstore.get_wall_s",
	"mgard.decompose_s", "progressive.encode_s", "storage.write_s",
}

func newReport(w workload, seed int64, datasetSeeds []int64, traced bool) report {
	return report{
		Workload: w.name,
		Why:      w.why,
		Traced:   traced,
		Provenance: provenance{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			CPU:        cpuModel(),
			OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
			Seed:       seed,

			DatasetSeeds: datasetSeeds,
		},
		Gated: map[string]metricValue{},
	}
}

func (rep *report) add(name string, v float64, unit string, samples int, gated bool) {
	rep.Metrics = append(rep.Metrics, reportMetric{Name: name, Value: v, Unit: unit, Samples: samples})
	if gated {
		rep.Gated[name] = metricValue{Value: v, Unit: unit}
	}
}

func (rep *report) count(p *pass) {
	rep.Attempted += p.attempted
	rep.Failed += p.failed
	rep.FailedOps = append(rep.FailedOps, p.failures...)
}

// endToEnd books an untraced pass. The gated metrics go on the result
// line of every workload; the others apply to some workloads only and
// appear in the report alone.
func (rep *report) endToEnd(setups []float64, p *pass) {
	rep.count(p)
	ops := p.ops()
	fops := float64(ops)
	setup, n := nearestRank(setups, 0.5)
	rep.add("setup_s", setup, "s", n, true)
	typical, n := p.stepP50Geomean()
	rep.add("step_p50_geomean_s", typical, "s", n, true)
	p50, n := nearestRank(p.lat, 0.5)
	rep.add("op_p50_s", p50, "s", n, false)
	rep.add("ops_per_s", ratio(fops, p.wall.Seconds()), "1/s", ops, true)
	rep.add("alloc_mb_per_op", ratio(float64(p.rt.allocBytes)/1e6, fops), "MB", ops, true)
	rep.add("archive_bytes_per_op", ratio(float64(p.archiveBytes), fops), "bytes", ops, true)
	if ops >= 100 {
		p90, n := nearestRank(p.lat, 0.9)
		rep.add("op_p90_s", p90, "s", n, false)
	}
	if p.inputBytes > 0 {
		rep.add("pack_mb_per_s", ratio(float64(p.inputBytes)/1e6, p.wall.Seconds()), "MB/s", ops, false)
		rep.add("stored_bytes_per_input_byte", ratio(float64(p.archiveBytes), float64(p.inputBytes)), "ratio", ops, false)
	} else {
		rep.add("retrieved_bytes_per_op", ratio(float64(p.archiveBytes), fops), "bytes", ops, false)
	}
	if p.remote {
		rep.add("wire_bytes_per_op", ratio(float64(p.wireBytes), fops), "bytes", ops, false)
		rep.add("requests_per_op", ratio(float64(p.requests), fops), "count", ops, false)
	}
	classes := make([]string, 0, len(p.class))
	for c := range p.class {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		v, n := nearestRank(p.class[c], 0.9)
		rep.add(c+"_p90_s", v, "s", n, false)
	}
	for _, rel := range schedule {
		if l := p.step[rel]; len(l) > 0 {
			v, n := nearestRank(l, 0.5)
			rep.add(fmt.Sprintf("p50_s_at_relative_%g", rel), v, "s", n, false)
		}
	}
	rep.add("failed_fraction", ratio(float64(p.failed), float64(p.attempted)), "ratio", p.attempted, false)
}

// perLayer books a traced run: plain is its untraced half, traced the
// half measured with spans and wrappers on.
func (rep *report) perLayer(plain, traced *pass) {
	rep.count(plain)
	rep.count(traced)
	ops := traced.ops()
	v := map[string]float64{}
	for k, s := range traced.sums {
		v[k] = ratio(s, float64(ops))
	}
	for k, x := range traced.vals {
		v[k] = x
	}
	v["objstore.bytes_per_get"] = ratio(traced.sums["objstore.get_bytes"], traced.sums["objstore.gets_per_op"])
	v["qoi.bound_looseness"], _ = nearestRank(traced.looseness, 0.5)
	v["qoi.actual_to_tolerance_max"] = traced.actualMax
	// GC work comes from the untraced half: tracing allocates.
	v["runtime.gc_cycles_per_op"] = ratio(float64(plain.rt.gcCycles), float64(plain.ops()))
	v["runtime.gc_cpu_s_per_op"] = ratio(plain.rt.gcCPU, float64(plain.ops()))
	tOp, _ := traced.stepP50Geomean()
	pOp, _ := plain.stepP50Geomean()
	v["bench.trace_overhead_ratio"] = ratio(tOp, pOp)
	for _, m := range perLayerMetrics {
		samples := ops
		if m.name == "runtime.gc_cycles_per_op" || m.name == "runtime.gc_cpu_s_per_op" {
			samples = plain.ops()
		}
		rep.add(m.name, v[m.name], m.unit, samples, true)
	}
	best, bestV := "", 0.0
	for _, c := range dominantCandidates {
		if c == "client.fetch_wall_s" && v["objstore.get_wall_s"] > 0 {
			continue
		}
		if v[c] > bestV {
			best, bestV = c, v[c]
		}
	}
	var mean float64
	for _, l := range traced.lat {
		mean += l
	}
	if best != "" && ops > 0 {
		rep.Dominant = fmt.Sprintf("%s (%.0f%% of the mean traced op)", best, 100*bestV/(mean/float64(ops)))
	}
}

// cpuModel names the CPU from the kernel's processor table, falling back
// to the architecture where there is none.
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

// printTable writes a report for people.
func printTable(w io.Writer, rep report) {
	pv := rep.Provenance
	fmt.Fprintf(w, "%s (seed %d, %s, nproc %d, GOMAXPROCS %d, %s, %s, traced=%v): %d ops attempted, %d failed\n",
		rep.Workload, pv.Seed, pv.CPU, pv.NProc, pv.GOMAXPROCS, pv.Go, pv.OSArch, rep.Traced, rep.Attempted, rep.Failed)
	if len(rep.Setups) > 0 {
		fmt.Fprintf(w, "  set-ups (s): %.3g\n", rep.Setups)
	}
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	if rep.Dominant != "" {
		fmt.Fprintf(w, "  dominant layer: %s\n", rep.Dominant)
	}
	for _, f := range rep.FailedOps {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
