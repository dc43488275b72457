package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"progqoi/internal/obs"
)

// maxFailureLines bounds how many failed ops a report lists verbatim.
const maxFailureLines = 8

// pass is what one timed pass over a workload observed. Retrieval
// workloads with several concurrent sessions fill one pass per session
// and merge them.
type pass struct {
	lat       []float64             // seconds per completed, correct op
	class     map[string][]float64  // latencies by tenant class (http-tenants)
	step      map[float64][]float64 // latencies by schedule step (retrieval)
	attempted int
	failed    int
	failures  []string // the first maxFailureLines failed ops
	wall      time.Duration

	archiveBytes int64 // bytes retrieved (retrieval) or stored (pack), summed over ops
	inputBytes   int64 // raw field bytes packed (pack)
	wireBytes    int64 // bytes that crossed HTTP (remote workloads)
	requests     int64 // HTTP requests issued (remote workloads)
	remote       bool  // wireBytes and requests apply

	rt runtimeDelta

	// Traced passes only. sums holds per-layer totals that finish as
	// per-op means; vals holds per-layer values that are final as they
	// stand (quantiles, maxima, ratios).
	sums      map[string]float64
	vals      map[string]float64
	looseness []float64 // certified estimate ÷ actual QoI error, per target per op
	actualMax float64   // largest actual QoI error ÷ tolerance
}

func newPass() *pass {
	return &pass{class: map[string][]float64{}, step: map[float64][]float64{}, sums: map[string]float64{}, vals: map[string]float64{}}
}

// ops is the number of ops that completed correctly.
func (p *pass) ops() int { return len(p.lat) }

func (p *pass) record(class string, d time.Duration) {
	p.lat = append(p.lat, d.Seconds())
	if class != "" {
		p.class[class] = append(p.class[class], d.Seconds())
	}
}

// stepP50Geomean is the typical op time: the geometric mean over the
// schedule steps of each step's median latency, or the median latency
// where ops have no steps (pack). The steps' latencies differ several
// fold, so a median over all ops pooled lands on the edge of one step's
// cluster and jumps with small shifts; each step's own median does not.
// The sample count is the ops behind it.
func (p *pass) stepP50Geomean() (float64, int) {
	if len(p.step) == 0 {
		return nearestRank(p.lat, 0.5)
	}
	var p50s []float64
	n := 0
	for _, l := range p.step {
		v, k := nearestRank(l, 0.5)
		p50s = append(p50s, v)
		n += k
	}
	return geomean(p50s), n
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < maxFailureLines {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds q, a concurrent session's pass over the same window, into p.
func (p *pass) merge(q *pass) {
	p.lat = append(p.lat, q.lat...)
	for c, l := range q.class {
		p.class[c] = append(p.class[c], l...)
	}
	for r, l := range q.step {
		p.step[r] = append(p.step[r], l...)
	}
	p.attempted += q.attempted
	p.failed += q.failed
	for _, f := range q.failures {
		if len(p.failures) < maxFailureLines {
			p.failures = append(p.failures, f)
		}
	}
	p.archiveBytes += q.archiveBytes
	p.inputBytes += q.inputBytes
	p.wireBytes += q.wireBytes
	p.requests += q.requests
	p.remote = p.remote || q.remote
	for k, v := range q.sums {
		p.sums[k] += v
	}
	p.looseness = append(p.looseness, q.looseness...)
	p.actualMax = max(p.actualMax, q.actualMax)
}

// addSpans books one Do's trace spans into the per-layer totals: busy is
// the summed span time of a layer, wall the union of its spans.
func (p *pass) addSpans(spans []obs.Span) {
	by := map[string][]interval{}
	for _, s := range spans {
		by[s.Cat] = append(by[s.Cat], interval{s.Start, s.Start + s.Dur})
	}
	secs := func(d time.Duration) float64 { return d.Seconds() }
	p.sums["core.plan_wall_s"] += secs(unionLength(by[obs.CatPlan]))
	p.sums["core.commit_busy_s"] += secs(busyLength(by[obs.CatCommit]))
	p.sums["core.commit_wall_s"] += secs(unionLength(by[obs.CatCommit]))
	p.sums["qoi.estimate_busy_s"] += secs(busyLength(by[obs.CatEstimate]))
	p.sums["qoi.estimate_wall_s"] += secs(unionLength(by[obs.CatEstimate]))
	p.sums["progressive.decode_busy_s"] += secs(busyLength(by[obs.CatDecode]))
	p.sums["progressive.decode_wall_s"] += secs(unionLength(by[obs.CatDecode]))
	p.sums["client.fetch_wall_s"] += secs(unionLength(by[obs.CatFetch]))
	p.sums["objstore.get_busy_s"] += secs(busyLength(by[obs.CatStore]))
	p.sums["objstore.get_wall_s"] += secs(unionLength(by[obs.CatStore]))
}

// runtimeDelta is process-wide allocation and GC work over a pass, so
// in-process servers and mocks count too.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeDelta
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[2].Value.Float64()
	}
	return r
}

func (r runtimeDelta) since(start runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: r.allocBytes - start.allocBytes,
		gcCycles:   r.gcCycles - start.gcCycles,
		gcCPU:      r.gcCPU - start.gcCPU,
	}
}
