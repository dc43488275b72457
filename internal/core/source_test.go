package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"progqoi/internal/progressive"
	"progqoi/internal/qoi"
)

// fakeSource serves payloads from resident variables and records every
// Fetch: the runs it was asked for and which fragments it has handed out.
type fakeSource struct {
	vars []*Variable

	mu     sync.Mutex
	calls  [][]Run        // guarded by mu
	served []map[int]bool // guarded by mu; served[v][fi] once handed out
	wire   int64          // guarded by mu
	// after, when set, runs at the end of every successful Fetch.
	after func()
}

func newFakeSource(vars []*Variable) *fakeSource {
	s := &fakeSource{vars: vars, served: make([]map[int]bool, len(vars))}
	for v := range s.served {
		s.served[v] = map[int]bool{}
	}
	return s
}

func (s *fakeSource) Fetch(ctx context.Context, runs []Run) ([][][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.calls = append(s.calls, append([]Run(nil), runs...))
	out := make([][][]byte, len(runs))
	for v, r := range runs {
		for fi := r.Lo; fi < r.Hi; fi++ {
			p := s.vars[v].Ref.Fragments[fi]
			out[v] = append(out[v], p)
			s.served[v][fi] = true
			s.wire += int64(len(p))
		}
	}
	s.mu.Unlock()
	if s.after != nil {
		s.after()
	}
	return out, nil
}

func (s *fakeSource) WireBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wire
}

// take returns the recorded calls and the fragments served so far, and
// clears the call log.
func (s *fakeSource) take() ([][]Run, []map[int]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := s.calls
	s.calls = nil
	served := make([]map[int]bool, len(s.served))
	for v, m := range s.served {
		served[v] = map[int]bool{}
		for fi := range m {
			served[v][fi] = true
		}
	}
	return calls, served
}

// checkCalls asserts the Source contract from the caller's side: at most
// one Fetch per iteration, one well-formed run per variable, only for
// involved variables, and never a fragment served before.
func checkCalls(t *testing.T, calls [][]Run, before []map[int]bool, iters int, involved map[int]bool, vars []*Variable) {
	t.Helper()
	if len(calls) > iters {
		t.Fatalf("%d fetches in %d iterations", len(calls), iters)
	}
	for ci, runs := range calls {
		if len(runs) != len(vars) {
			t.Fatalf("fetch %d: %d runs for %d variables", ci, len(runs), len(vars))
		}
		nonEmpty := 0
		for v, r := range runs {
			if r.Lo == r.Hi {
				continue
			}
			nonEmpty++
			if !involved[v] {
				t.Fatalf("fetch %d: run %v for uninvolved variable %d", ci, r, v)
			}
			if r.Lo < 0 || r.Lo > r.Hi || r.Hi > len(vars[v].Ref.Fragments) {
				t.Fatalf("fetch %d: run %v outside %d fragments", ci, r, len(vars[v].Ref.Fragments))
			}
			for fi := r.Lo; fi < r.Hi; fi++ {
				if before[v][fi] {
					t.Fatalf("fetch %d: %s fragment %d fetched again", ci, vars[v].Name, fi)
				}
				before[v][fi] = true
			}
		}
		if nonEmpty == 0 {
			t.Fatalf("fetch %d asked for nothing", ci)
		}
	}
}

func sameData(t *testing.T, got, want [][]float64) {
	t.Helper()
	for v := range want {
		if (got[v] == nil) != (want[v] == nil) {
			t.Fatalf("variable %d: retrieved on one side only", v)
		}
		for j := range want[v] {
			if math.Float64bits(got[v][j]) != math.Float64bits(want[v][j]) {
				t.Fatalf("variable %d point %d: %g != %g", v, j, got[v][j], want[v][j])
			}
		}
	}
}

func TestSourceOneRunPerVariablePerIteration(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	for _, method := range []progressive.Method{progressive.PSZ3, progressive.PSZ3Delta, progressive.PMGARDHB} {
		vars := refactorDataset(t, ds, method)
		local, err := NewRetriever(vars, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		src := newFakeSource(vars)
		rt, err := NewSourceRetriever(vars, src, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Velocity magnitude alone leaves pressure and density uninvolved;
		// adding temperature and sound speed involves every variable.
		steps := []struct {
			k   []int
			rel float64
		}{{[]int{0}, 1e-2}, {[]int{0, 1, 2}, 1e-4}, {[]int{0, 1, 2}, 1e-6}}
		_, served := src.take()
		for _, st := range steps {
			req := Request{}
			involved := map[int]bool{}
			for _, k := range st.k {
				req.QoIs = append(req.QoIs, ds.QoIs[k])
				req.Tolerances = append(req.Tolerances, st.rel*ranges[k])
				req.InitRel = append(req.InitRel, st.rel)
			}
			for _, q := range req.QoIs {
				for _, v := range qoi.Vars(q.Expr) {
					involved[v] = true
				}
			}
			want, err := local.Retrieve(context.Background(), req)
			if err != nil {
				t.Fatalf("%v local: %v", method, err)
			}
			got, err := rt.Retrieve(context.Background(), req)
			if err != nil {
				t.Fatalf("%v source: %v", method, err)
			}
			calls, _ := src.take()
			checkCalls(t, calls, served, got.Iterations, involved, vars)
			if got.RetrievedBytes != want.RetrievedBytes || got.Iterations != want.Iterations {
				t.Fatalf("%v rel %g: source session (%d B, %d iters), local (%d B, %d iters)",
					method, st.rel, got.RetrievedBytes, got.Iterations, want.RetrievedBytes, want.Iterations)
			}
			sameData(t, got.Data, want.Data)
		}
		if src.WireBytes() != rt.RetrievedBytes() {
			t.Fatalf("%v: source moved %d bytes, session retrieved %d", method, src.WireBytes(), rt.RetrievedBytes())
		}
	}
}

func TestSourceResumeAfterCancelBetweenFetchAndAdvance(t *testing.T) {
	ds := smallGE()
	ranges := QoIRanges(ds.QoIs, ds.Fields)
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	req := Request{QoIs: ds.QoIs[:1], Tolerances: []float64{1e-5 * ranges[0]}, InitRel: []float64{1e-5}}
	local, err := NewRetriever(vars, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Retrieve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Resuming with the same request first plans exactly the held
	// fragments; a far tighter one plans past them, so its first run
	// starts with held fragments.
	tight := Request{QoIs: req.QoIs, Tolerances: []float64{1e-9 * ranges[0]}, InitRel: []float64{1e-12}}
	for _, resume := range []Request{req, tight} {
		src := newFakeSource(vars)
		rt, err := NewSourceRetriever(vars, src, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Cancel the Do as soon as its second fetch has returned: the
		// payloads are installed, but no reader has ingested them.
		ctx, cancel := context.WithCancel(context.Background())
		fetches := 0
		src.after = func() {
			if fetches++; fetches == 2 {
				cancel()
			}
		}
		if _, err := rt.Retrieve(ctx, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Do: want context.Canceled, got %v", err)
		}
		src.after = nil
		calls, served := src.take()
		if len(calls) != 2 {
			t.Fatalf("cancelled Do made %d fetches, want 2", len(calls))
		}

		got, err := rt.Retrieve(context.Background(), resume)
		if err != nil {
			t.Fatal(err)
		}
		calls, _ = src.take()
		checkCalls(t, calls, served, got.Iterations, map[int]bool{0: true, 1: true, 2: true}, vars)
		if src.WireBytes() != got.RetrievedBytes {
			t.Fatalf("source moved %d B for %d B retrieved: held fragments were refetched", src.WireBytes(), got.RetrievedBytes)
		}
		if resume.Tolerances[0] == req.Tolerances[0] {
			if got.RetrievedBytes != want.RetrievedBytes {
				t.Fatalf("resumed session retrieved %d B, local %d B", got.RetrievedBytes, want.RetrievedBytes)
			}
			sameData(t, got.Data, want.Data)
		}
	}
}

// shortSource answers every run with one payload too few.
type shortSource struct{ *fakeSource }

func (s shortSource) Fetch(ctx context.Context, runs []Run) ([][][]byte, error) {
	out, err := s.fakeSource.Fetch(ctx, runs)
	for v := range out {
		if len(out[v]) > 0 {
			out[v] = out[v][1:]
		}
	}
	return out, err
}

// failSource fails every fetch.
type failSource struct{ *fakeSource }

var errFetch = errors.New("fetch failed")

func (failSource) Fetch(context.Context, []Run) ([][][]byte, error) { return nil, errFetch }

func TestSourceErrorsWrapped(t *testing.T) {
	ds := smallGE()
	vars := refactorDataset(t, ds, progressive.PMGARDHB)
	req := Request{QoIs: ds.QoIs[:1], Tolerances: []float64{1e-3}}
	for name, src := range map[string]Source{
		"short":  shortSource{newFakeSource(vars)},
		"failed": failSource{newFakeSource(vars)},
	} {
		rt, err := NewSourceRetriever(vars, src, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.Retrieve(context.Background(), req)
		if err == nil || !strings.Contains(err.Error(), "core: prefetch: ") {
			t.Fatalf("%s source: want a core: prefetch error, got %v", name, err)
		}
		if name == "failed" && !errors.Is(err, errFetch) {
			t.Fatalf("failed source: error %v does not wrap the source's", err)
		}
	}
}
