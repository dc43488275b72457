package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"progqoi"
	"progqoi/internal/datagen"
	"progqoi/internal/server"
	"progqoi/internal/storage"
	"progqoi/internal/storage/objstore"
	"progqoi/internal/storage/objstore/miniobj"
)

// runner is a workload after set-up, ready to be measured.
type runner interface {
	// join adds another set-up of the same workload (another dataset) to
	// the ones this runner cycles through.
	join(other runner)
	// pass measures the workload for about d. A traced pass records the
	// program's trace spans and switches the layer wrappers on.
	pass(ctx context.Context, d time.Duration, traced bool) (*pass, error)
	// close releases what this runner's own set-up started.
	close()
}

type workload struct {
	name, why string
	setup     func(ctx context.Context, seed int64) (runner, error)
}

var workloads = []workload{
	{"pack", "decompose, bit-plane encode, deflate and archive write of a 15.7 MB GE stand-in; the write side", setupPack},
	{"local-ge6", "six GE QoIs over a resident archive: estimator, decode and commit, no transport", setupLocal},
	{"s3-cold", "per-fragment signed GETs against a mock bucket with caches off: the object-store read path", setupS3},
	{"http-tenants", "two tenant classes on a cluster with few serving slots: auth, admission, hot cache, client HTTP", setupHTTP},
}

// retrievalRunner measures closed-loop sessions walking the schedule. It
// runs in rounds: each round takes the next set-up's sessions and walks
// each of them once, concurrently, so concurrent sessions always share
// one archive or cluster.
type retrievalRunner struct {
	sets    [][]*walker
	side    *serverSide // http-tenants only
	closers []func()
}

func (r *retrievalRunner) join(o runner) {
	q := o.(*retrievalRunner)
	r.sets = append(r.sets, q.sets...)
	if q.side != nil {
		r.side.nodes = append(r.side.nodes, q.side.nodes...)
		r.side.handlers = append(r.side.handlers, q.side.handlers...)
		r.side.stores = append(r.side.stores, q.side.stores...)
		r.side.transports = append(r.side.transports, q.side.transports...)
	}
}

func (r *retrievalRunner) pass(ctx context.Context, d time.Duration, traced bool) (*pass, error) {
	var finish func(*pass)
	if traced && r.side != nil {
		finish = r.side.layers()
	}
	runtime.GC()
	start := readRuntime()
	t0 := time.Now()
	p := newPass()
	var err error
	for round := 0; err == nil && (round == 0 || time.Since(t0) < d); round++ {
		err = walkAll(ctx, r.sets[round%len(r.sets)], round, traced, p)
	}
	p.wall = time.Since(t0)
	p.rt = readRuntime().since(start)
	if finish != nil {
		finish(p)
	}
	return p, err
}

// walkAll walks each session once, concurrently, and books them into p.
func walkAll(ctx context.Context, ws []*walker, round int, traced bool, p *pass) error {
	passes := make([]*pass, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		passes[i] = newPass()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.walk(ctx, round, traced, passes[i])
		}()
	}
	wg.Wait()
	for _, q := range passes {
		p.merge(q)
	}
	return errors.Join(errs...)
}

func (r *retrievalRunner) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// geDataset generates a GE-shaped dataset and refactors it locally; the
// local archive serves, or seeds, every retrieval workload and is the
// reference every remote session must reproduce.
func geDataset(blocks, blockSize int, seed int64) (*datagen.Dataset, *progqoi.Archive, error) {
	ds := datagen.GE("ge", blocks, blockSize, seed)
	arch, err := progqoi.Refactor(ds.FieldNames, ds.Fields, ds.Dims)
	return ds, arch, err
}

// setupLocal: a session over a resident archive of GE 48×4096, certifying
// the paper's six GE QoIs (Eqs. 1–6). The reference replay is the warm-up.
func setupLocal(ctx context.Context, seed int64) (runner, error) {
	ds, arch, err := geDataset(48, 4096, seed)
	if err != nil {
		return nil, err
	}
	m := newMix(progqoi.GEQoIs(), ds.Fields)
	refs, err := replay(ctx, arch, m, ds.Fields)
	if err != nil {
		return nil, err
	}
	return &retrievalRunner{sets: [][]*walker{{{arch: arch, mix: m, refs: refs, seed: seed}}}}, nil
}

const (
	s3Bucket = "progqoi-bench"
	s3Prefix = "archives"
	s3Access = "AKIDPROGQOIBENCH"
	s3Secret = "progqoi-bench-secret"
	dataset  = "ge"
)

// sessionsPerCPU is how many retrieval sessions the remote workloads run
// at once per CPU. With more sessions than CPUs the CPUs stay busy, so the
// figures measure the work behind each request rather than how fast an
// idle virtual CPU wakes up, which on shared hosts varies from minute to
// minute.
const sessionsPerCPU = 2

// setupS3: a GE-small-shaped dataset (200×320 = 64,000 points) in an
// in-process miniobj bucket, opened through an s3:// reference with the
// cache off so every fragment a session plans is one signed ranged GET.
func setupS3(ctx context.Context, seed int64) (runner, error) {
	ds, local, err := geDataset(200, 320, seed)
	if err != nil {
		return nil, err
	}
	m, err := cheapMix(ds.FieldNames, ds.Fields)
	if err != nil {
		return nil, err
	}
	refs, err := replay(ctx, local, m, ds.Fields)
	if err != nil {
		return nil, err
	}
	srv := miniobj.New(s3Bucket, miniobj.Credentials{AccessKey: s3Access, SecretKey: s3Secret})
	r := &retrievalRunner{closers: []func(){srv.Close}}
	seedStore, err := objstore.New(objstore.Options{
		Endpoint: srv.URL(), Bucket: s3Bucket, Prefix: s3Prefix,
		AccessKey: s3Access, SecretKey: s3Secret,
	})
	if err == nil {
		err = storage.WriteArchive(ctx, seedStore, dataset, local.Variables())
	}
	// Each session is its own client: an archive opened on its own, so
	// its fetch counters are its own too.
	var ws []*walker
	for range sessionsPerCPU * runtime.NumCPU() {
		if err != nil {
			break
		}
		var arch *progqoi.Archive
		arch, err = progqoi.Open(ctx, "s3://"+s3Bucket+"/"+s3Prefix+"/"+dataset,
			progqoi.WithS3Endpoint(srv.URL()), progqoi.WithS3Credentials(s3Access, s3Secret),
			progqoi.WithCache(-1))
		ws = append(ws, &walker{arch: arch, mix: m, refs: refs, seed: seed})
	}
	if err == nil {
		r.sets = [][]*walker{ws}
		err = warm(ctx, ws)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// warm walks each session once, unmeasured, so connections and pools
// exist before timing starts.
func warm(ctx context.Context, ws []*walker) error {
	return walkAll(ctx, ws, 0, false, newPass())
}

// benchTenants are the tenant classes of http-tenants; sessions
// alternate between them.
var benchTenants = []server.Tenant{
	{Name: "interactive", Token: "progqoi-bench-interactive-token", RateLimit: 100000, Class: server.ClassInteractive},
	{Name: "bulk", Token: "progqoi-bench-bulk-token", RateLimit: 100000, Class: server.ClassBulk},
}

// setupHTTP: a progqoid cluster of nproc in-process nodes over one
// in-memory store, one serving slot per node so the sessions, half of
// them per tenant class, queue in admission. Rate limits are far above
// the load and each queue holds every session: nothing is throttled or
// shed, and an op the cluster pushed back on fails.
func setupHTTP(ctx context.Context, seed int64) (runner, error) {
	ds, local, err := geDataset(200, 320, seed)
	if err != nil {
		return nil, err
	}
	m, err := cheapMix(ds.FieldNames, ds.Fields)
	if err != nil {
		return nil, err
	}
	refs, err := replay(ctx, local, m, ds.Fields)
	if err != nil {
		return nil, err
	}
	st := newLayerStore()
	if err := storage.WriteArchive(ctx, st, dataset, local.Variables()); err != nil {
		return nil, err
	}
	r := &retrievalRunner{side: &serverSide{stores: []*layerStore{st}}}
	if err := r.startCluster(ctx, st, m, refs, seed); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *retrievalRunner) startCluster(ctx context.Context, st *layerStore, m mix, refs []reference, seed int64) error {
	var endpoints []string
	for range runtime.NumCPU() {
		// Each session keeps at most one request in flight per node, so a
		// queue as long as the sessions never sheds.
		srv, err := server.New(ctx, st, server.Options{
			MaxInflight: 1, MaxQueue: sessionsPerCPU * runtime.NumCPU(), Tenants: benchTenants,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		h := &layerHandler{inner: srv}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = hs.Serve(ln) // returns http.ErrServerClosed once closed below
		}()
		r.closers = append(r.closers, func() {
			_ = hs.Close()
			<-served
		})
		r.side.nodes = append(r.side.nodes, srv)
		r.side.handlers = append(r.side.handlers, h)
		endpoints = append(endpoints, "http://"+ln.Addr().String())
	}
	// Each session is its own client with its own connection pool, as
	// without WithHTTPClient, through a transport equal to the client's
	// default and wrapped to time every attempt while switched on.
	var ws []*walker
	for i := range sessionsPerCPU * runtime.NumCPU() {
		t := benchTenants[i%len(benchTenants)]
		inner := http.DefaultTransport.(*http.Transport).Clone()
		inner.ResponseHeaderTimeout = 30 * time.Second
		lt := &layerTransport{inner: inner}
		r.side.transports = append(r.side.transports, lt)
		r.closers = append(r.closers, inner.CloseIdleConnections)
		arch, err := progqoi.Open(ctx, endpoints[0]+"/"+dataset,
			progqoi.WithEndpoints(endpoints[1:]...),
			progqoi.WithToken(t.Token),
			progqoi.WithCache(-1),
			progqoi.WithHTTPClient(&http.Client{Transport: lt}))
		if err != nil {
			return fmt.Errorf("open as %s: %w", t.Name, err)
		}
		r.closers = append(r.closers, arch.Close)
		ws = append(ws, &walker{arch: arch, mix: m, refs: refs, class: t.Class, seed: seed})
	}
	r.sets = [][]*walker{ws}
	return warm(ctx, ws)
}

// serverSide is what http-tenants' traced pass reads from its clusters.
type serverSide struct {
	nodes      []*server.Server
	handlers   []*layerHandler
	stores     []*layerStore
	transports []*layerTransport
}

// layers switches the server-side wrappers on and samples admission queue
// depth until the returned function books the pass's totals.
func (s *serverSide) layers() func(*pass) {
	hotBefore := hotCache(s.nodes)
	reads, readNanos, attempts := s.counts()
	for _, st := range s.stores {
		st.on.Store(true)
	}
	for _, lt := range s.transports {
		lt.rtt.take()
		lt.on.Store(true)
	}
	for _, h := range s.handlers {
		h.handled.take()
		h.rejected.Store(0)
		h.on.Store(true)
	}
	stop := make(chan struct{})
	sampled := make(chan int)
	go func() {
		queued := 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, n := range s.nodes {
				st := n.Stats()
				queued = max(queued, st.QueuedInteractive+st.QueuedBulk)
			}
			select {
			case <-stop:
				sampled <- queued
				return
			case <-tick.C:
			}
		}
	}()
	return func(p *pass) {
		close(stop)
		p.vals["server.queued_max"] = float64(<-sampled)
		for _, st := range s.stores {
			st.on.Store(false)
		}
		var handled, rtts []float64
		var rejected int64
		for _, h := range s.handlers {
			h.on.Store(false)
			handled = append(handled, h.handled.take()...)
			rejected += h.rejected.Load()
		}
		for _, lt := range s.transports {
			lt.on.Store(false)
			rtts = append(rtts, lt.rtt.take()...)
		}
		reads1, readNanos1, attempts1 := s.counts()
		p.vals["server.handler_p90_s"], _ = nearestRank(handled, 0.9)
		p.sums["server.rejected_per_op"] = float64(rejected)
		p.sums["server.store_reads_per_op"] = float64(reads1 - reads)
		p.sums["server.store_read_busy_s"] = time.Duration(readNanos1 - readNanos).Seconds()
		hotAfter := hotCache(s.nodes)
		hits, misses := hotAfter[0]-hotBefore[0], hotAfter[1]-hotBefore[1]
		p.vals["server.hot_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		p.sums["client.http_attempts_per_op"] = float64(attempts1 - attempts)
		p.vals["client.rtt_p90_s"], _ = nearestRank(rtts, 0.9)
	}
}

// counts sums the store reads, their time, and the client HTTP attempts.
func (s *serverSide) counts() (reads, readNanos, attempts int64) {
	for _, st := range s.stores {
		reads += st.reads.Load()
		readNanos += st.readNanos.Load()
	}
	for _, lt := range s.transports {
		attempts += lt.attempts.Load()
	}
	return reads, readNanos, attempts
}

// hotCache sums the nodes' hot-cache hits and misses.
func hotCache(nodes []*server.Server) [2]int64 {
	var hm [2]int64
	for _, n := range nodes {
		s := n.Stats()
		hm[0] += s.HotCacheHits
		hm[1] += s.HotCacheMisses
	}
	return hm
}
