package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"progqoi"
)

// schedule is the tightening walk every retrieval session makes, as the
// paper's progressive user does: each Do asks for every target at the
// next relative tolerance, and the session reuses all bytes it holds.
var schedule = []float64{1e-2, 1e-3, 1e-4, 1e-5}

// mix is the set of QoIs a session certifies, with their value ranges on
// the original fields (relative tolerances scale by them).
type mix struct {
	qois   []progqoi.QoI
	ranges []float64
}

func newMix(qois []progqoi.QoI, orig [][]float64) mix {
	return mix{qois: qois, ranges: progqoi.QoIRanges(qois, orig)}
}

func (m mix) targets(rel float64) []progqoi.Target {
	t := make([]progqoi.Target, len(m.qois))
	for k, q := range m.qois {
		t[k] = progqoi.Target{QoI: q, Tolerance: rel, Relative: true, Range: m.ranges[k]}
	}
	return t
}

// cheapMix is total velocity plus temperature, the light QoI pair the
// remote workloads certify.
func cheapMix(fields []string, orig [][]float64) (mix, error) {
	temp, err := progqoi.ParseQoI("T", "Pressure/(287.1*Density)", fields)
	if err != nil {
		return mix{}, err
	}
	return newMix([]progqoi.QoI{progqoi.TotalVelocity(0, 1, 2), temp}, orig), nil
}

// reference is the local replay of one schedule step: the result every
// session must reproduce bit for bit, and that result's actual QoI error
// against the original fields.
type reference struct {
	rel    float64
	res    *progqoi.Result // deep copy
	tol    []float64       // absolute tolerance per target
	actual []float64
}

// replay walks the schedule on a fresh local session of arch and records
// each step's result as the reference the measured sessions must match.
func replay(ctx context.Context, arch *progqoi.Archive, m mix, orig [][]float64) ([]reference, error) {
	sess, err := arch.Open()
	if err != nil {
		return nil, err
	}
	refs := make([]reference, len(schedule))
	for i, rel := range schedule {
		res, err := sess.Do(ctx, progqoi.Request{Targets: m.targets(rel)})
		if err != nil {
			return nil, fmt.Errorf("reference replay at relative tolerance %g: %w", rel, err)
		}
		r := reference{rel: rel, res: copyResult(res), tol: make([]float64, len(m.qois))}
		for k := range m.qois {
			r.tol[k] = rel * m.ranges[k]
		}
		r.actual = progqoi.ActualQoIErrors(m.qois, orig, res.Data)
		refs[i] = r
	}
	return refs, nil
}

// copyResult deep-copies a Result; a session reuses its Data slices on
// the next Do.
func copyResult(res *progqoi.Result) *progqoi.Result {
	c := *res
	c.EstErrors = append([]float64(nil), res.EstErrors...)
	c.VarBounds = append([]float64(nil), res.VarBounds...)
	c.Data = make([][]float64, len(res.Data))
	for v, d := range res.Data {
		c.Data[v] = append([]float64(nil), d...)
	}
	return &c
}

// check verifies one Do of this step: it certified every target, matches
// the local replay bit for bit, and the replay's actual QoI error (hence
// this result's) is within tolerance.
func (r *reference) check(res *progqoi.Result, err error) error {
	if err != nil {
		return err
	}
	if !res.ToleranceMet {
		return fmt.Errorf("tolerance not met after %d iterations", res.Iterations)
	}
	for k, e := range res.EstErrors {
		if k >= len(r.tol) || !(e <= r.tol[k]) {
			return fmt.Errorf("target %d: certified estimate %g above tolerance", k, e)
		}
	}
	if err := sameResult(r.res, res); err != nil {
		return fmt.Errorf("differs from the local replay: %w", err)
	}
	for k, a := range r.actual {
		if !(a <= r.tol[k]) {
			return fmt.Errorf("target %d: actual QoI error %.17g exceeds tolerance %.17g", k, a, r.tol[k])
		}
	}
	return nil
}

// sameResult compares two retrieval results bit for bit: certified
// errors, cumulative retrieved bytes and every reconstructed value. It is
// the comparison the load harness in internal/bench applies.
func sameResult(want, got *progqoi.Result) error {
	if len(want.EstErrors) != len(got.EstErrors) {
		return fmt.Errorf("%d vs %d estimated errors", len(want.EstErrors), len(got.EstErrors))
	}
	for k := range want.EstErrors {
		if want.EstErrors[k] != got.EstErrors[k] {
			return fmt.Errorf("QoI %d: certified error %g != %g", k, want.EstErrors[k], got.EstErrors[k])
		}
	}
	if want.RetrievedBytes != got.RetrievedBytes {
		return fmt.Errorf("retrieved %d != %d bytes", want.RetrievedBytes, got.RetrievedBytes)
	}
	if len(want.Data) != len(got.Data) {
		return fmt.Errorf("%d vs %d data slices", len(want.Data), len(got.Data))
	}
	for v := range want.Data {
		if len(want.Data[v]) != len(got.Data[v]) {
			return fmt.Errorf("var %d: %d vs %d points", v, len(want.Data[v]), len(got.Data[v]))
		}
		for j := range want.Data[v] {
			if math.Float64bits(want.Data[v][j]) != math.Float64bits(got.Data[v][j]) {
				return fmt.Errorf("var %d point %d: %g != %g", v, j, want.Data[v][j], got.Data[v][j])
			}
		}
	}
	return nil
}

// counters are an archive's cumulative transport counters: RemoteStats
// for an http(s) archive, StoreStats for an s3 one, zero for a local one.
type counters struct {
	wireBytes, requests                 int64
	retryPasses, failovers, rateLimited int64
}

// since is the counters' growth from b.
func (c counters) since(b counters) counters {
	return counters{
		wireBytes: c.wireBytes - b.wireBytes, requests: c.requests - b.requests,
		retryPasses: c.retryPasses - b.retryPasses, failovers: c.failovers - b.failovers,
		rateLimited: c.rateLimited - b.rateLimited,
	}
}

func snapshot(a *progqoi.Archive) counters {
	if a.StoreBacked() {
		s := a.StoreStats()
		return counters{wireBytes: s.ColdFetchBytes, requests: s.ColdFetches}
	}
	s := a.RemoteStats()
	return counters{
		wireBytes: s.WireBytes, requests: s.WireRequests,
		retryPasses: s.RetryPasses, failovers: s.Failovers, rateLimited: s.RateLimited,
	}
}

// walker drives closed-loop walks of the schedule over one archive: a
// fresh session per walk, each Do waiting for the last, every Do checked.
type walker struct {
	arch  *progqoi.Archive
	mix   mix
	refs  []reference
	class string // tenant class label; "" when there is one session
	seed  int64  // datagen seed of the dataset, for failure reports
}

// walk runs the schedule once on a fresh session and books it into p.
func (w *walker) walk(ctx context.Context, walk int, traced bool, p *pass) error {
	var (
		tr    *progqoi.Trace
		frags atomic.Int64
		opts  []progqoi.OpenOption
	)
	if traced {
		tr = progqoi.NewTrace()
		opts = append(opts, progqoi.WithTrace(tr),
			progqoi.WithFetchObserver(func(int, int64) { frags.Add(1) }))
	}
	sess, err := w.arch.Open(opts...)
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	p.remote = w.arch.Remote() || w.arch.StoreBacked()
	var held int64
	for step, ref := range w.refs {
		before := snapshot(w.arch)
		spans := len(tr.Spans())
		fetched := frags.Load()
		t0 := time.Now()
		res, err := sess.Do(ctx, progqoi.Request{Targets: w.mix.targets(ref.rel)})
		d := time.Since(t0)
		p.attempted++
		delta := snapshot(w.arch).since(before)
		if traced {
			p.sums["client.retry_passes_per_op"] += float64(delta.retryPasses)
			p.sums["client.failovers_per_op"] += float64(delta.failovers)
			p.sums["client.rate_limited_per_op"] += float64(delta.rateLimited)
		}
		err = ref.check(res, err)
		if err == nil && delta.retryPasses+delta.failovers+delta.rateLimited > 0 {
			// No workload loads a server past its rate limit or queue.
			err = fmt.Errorf("pushed back: %d retry passes, %d failovers, %d rate-limited responses",
				delta.retryPasses, delta.failovers, delta.rateLimited)
		}
		if err != nil {
			// The session's state is unknown after a bad op: end the walk.
			p.fail("dataset seed %d, %s walk %d step %d (relative tolerance %g): %v", w.seed, w.class, walk, step, ref.rel, err)
			return nil
		}
		p.record(w.class, d)
		p.step[ref.rel] = append(p.step[ref.rel], d.Seconds())
		p.archiveBytes += res.RetrievedBytes - held
		held = res.RetrievedBytes
		p.wireBytes += delta.wireBytes
		p.requests += delta.requests
		if !traced {
			continue
		}
		p.addSpans(tr.Spans()[spans:])
		p.sums["core.iterations_per_op"] += float64(res.Iterations)
		p.sums["progressive.fragments_per_op"] += float64(frags.Load() - fetched)
		if w.arch.StoreBacked() {
			p.sums["objstore.gets_per_op"] += float64(delta.requests)
			p.sums["objstore.get_bytes"] += float64(delta.wireBytes)
		}
		for k, a := range ref.actual {
			if a > 0 {
				p.looseness = append(p.looseness, res.EstErrors[k]/a)
			}
			p.actualMax = max(p.actualMax, a/ref.tol[k])
		}
	}
	return nil
}
