package main

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"progqoi/internal/storage"
)

// The wrappers below time a layer from outside, through an interface the
// program already accepts: a storage.Store handed to the pack call or a
// server, an http.RoundTripper handed to a remote client, and the
// http.Handler a server exposes. Each records only while switched on, so
// untraced passes run the program as it is.

// layerStore is an in-memory storage.Store that times reads and writes.
type layerStore struct {
	*storage.MemStore
	on                       atomic.Bool
	reads, readNanos         atomic.Int64
	puts, putNanos, putBytes atomic.Int64
}

func newLayerStore() *layerStore { return &layerStore{MemStore: storage.NewMemStore()} }

func (s *layerStore) Put(ctx context.Context, key string, val []byte) error {
	if !s.on.Load() {
		return s.MemStore.Put(ctx, key, val)
	}
	t0 := time.Now()
	err := s.MemStore.Put(ctx, key, val)
	s.putNanos.Add(int64(time.Since(t0)))
	s.puts.Add(1)
	s.putBytes.Add(int64(len(val)))
	return err
}

func (s *layerStore) Get(ctx context.Context, key string) ([]byte, error) {
	if !s.on.Load() {
		return s.MemStore.Get(ctx, key)
	}
	t0 := time.Now()
	b, err := s.MemStore.Get(ctx, key)
	s.readNanos.Add(int64(time.Since(t0)))
	s.reads.Add(1)
	return b, err
}

func (s *layerStore) GetRange(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if !s.on.Load() {
		return s.MemStore.GetRange(ctx, key, off, length)
	}
	t0 := time.Now()
	b, err := s.MemStore.GetRange(ctx, key, off, length)
	s.readNanos.Add(int64(time.Since(t0)))
	s.reads.Add(1)
	return b, err
}

// durations collects latency samples from concurrent callers.
type durations struct {
	mu sync.Mutex
	s  []float64 // guarded by mu; seconds
}

func (d *durations) add(v time.Duration) {
	d.mu.Lock()
	d.s = append(d.s, v.Seconds())
	d.mu.Unlock()
}

func (d *durations) take() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.s
	d.s = nil
	return s
}

// layerTransport times every HTTP attempt a client makes, from sending
// the request to the end of the response body.
type layerTransport struct {
	inner    http.RoundTripper
	on       atomic.Bool
	attempts atomic.Int64
	rtt      durations
}

func (t *layerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.inner.RoundTrip(r)
	}
	t0 := time.Now()
	t.attempts.Add(1)
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		t.rtt.add(time.Since(t0))
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.rtt.add(time.Since(t0)) }}
	return resp, nil
}

// timedBody calls done once, when the body reaches EOF or is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// layerHandler times a server's request handling and counts the
// requests it rejects for load (429, 503).
type layerHandler struct {
	inner    http.Handler
	on       atomic.Bool
	handled  durations
	rejected atomic.Int64
}

func (h *layerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	h.inner.ServeHTTP(sw, r)
	h.handled.add(time.Since(t0))
	if sw.status == http.StatusTooManyRequests || sw.status == http.StatusServiceUnavailable {
		h.rejected.Add(1)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
