package client

import (
	"context"
	"fmt"

	"progqoi/internal/core"
	"progqoi/internal/server"
)

// Remote is an opened remote dataset: the retrieval metadata of every
// variable (prefix bounds, schedules, zero masks, ranges) held locally,
// fragment payloads fetched lazily per retrieval iteration. A Remote is
// the core.Source of its sessions (see core.NewSourceRetriever); one Remote
// can serve many concurrent sessions, which share the client's cache and
// coalesce duplicate fetches.
type Remote struct {
	c       *Client
	dataset string
	vars    []*core.Variable // meta-only: fragment payloads are placeholders
	stored  int64
	workers int // bound on concurrent per-shard sub-batches; 0 = GOMAXPROCS
}

// Close stops the underlying client's background topology refresher. Only
// the Remote that owns its client (the Open path) should call it; with a
// shared client (New + OpenDataset across datasets), close the client once
// instead.
func (r *Remote) Close() { r.c.Close() }

// Open dials baseURL and opens the named dataset with fresh client
// options; ctx scopes the metadata round trips (and, with
// Options.DiscoverPeers, one best-effort topology fetch). Share one
// Client across datasets via New + OpenDataset when the cache should
// span them.
func Open(ctx context.Context, baseURL, dataset string, opt Options) (*Remote, error) {
	if opt.DiscoverPeers {
		// Ask the seed node for its topology and fold the routable nodes
		// (alive members on an elastic cluster, static peers otherwise)
		// into the endpoint set. Best-effort: a node without the route
		// (or an unreachable one — the configured endpoints may still
		// cover for it) is treated as advertising nothing.
		seed, err := New(baseURL, Options{
			HTTPClient:   opt.HTTPClient,
			MaxRetries:   opt.MaxRetries,
			RetryBackoff: opt.RetryBackoff,
			CacheBytes:   -1,
			Token:        opt.Token,
		})
		if err != nil {
			return nil, err
		}
		if info, err := seed.ClusterInfo(ctx); err == nil {
			opt.Endpoints = append(append([]string(nil), opt.Endpoints...), routableFrom(info, baseURL)...)
		}
	}
	c, err := New(baseURL, opt)
	if err != nil {
		return nil, err
	}
	return c.OpenDataset(ctx, dataset)
}

// OpenDataset fetches the dataset's index and metadata blob and returns a
// session factory for it. ctx scopes the two metadata fetches only;
// sessions opened later carry their own per-request contexts.
func (c *Client) OpenDataset(ctx context.Context, dataset string) (*Remote, error) {
	idx, err := c.Index(ctx, dataset)
	if err != nil {
		return nil, err
	}
	blob, err := c.do(ctx, "GET", "/v1/d/"+dataset+"/meta", nil, "")
	if err != nil {
		return nil, err
	}
	vars, err := server.DecodeMeta(blob)
	if err != nil {
		return nil, err
	}
	if len(vars) != len(idx.Variables) {
		return nil, fmt.Errorf("client: dataset %s: meta has %d variables, index %d", dataset, len(vars), len(idx.Variables))
	}
	var stored int64
	for i, v := range vars {
		iv := idx.Variables[i]
		if v.Name != iv.Name {
			return nil, fmt.Errorf("client: dataset %s: meta variable %q != index %q", dataset, v.Name, iv.Name)
		}
		if len(v.Ref.Fragments) != len(iv.FragmentSizes) {
			return nil, fmt.Errorf("client: dataset %s: %s has %d fragments in meta, %d in index",
				dataset, v.Name, len(v.Ref.Fragments), len(iv.FragmentSizes))
		}
		stored += iv.TotalBytes
	}
	return &Remote{c: c, dataset: dataset, vars: vars, stored: stored}, nil
}

// Client returns the underlying client (shared cache, wire stats).
func (r *Remote) Client() *Client { return r.c }

// StoredBytes returns the total fragment bytes held at the storage site.
func (r *Remote) StoredBytes() int64 { return r.stored }

// Variables returns the dataset's retrieval metadata with fragment
// payloads absent, shared by every session; callers must not mutate it.
func (r *Remote) Variables() []*core.Variable { return r.vars }

// WithWorkers returns a Remote over the same client and dataset whose
// fetches issue at most n concurrent per-shard sub-batches. A session
// passes its Workers budget so wire fan-out never exceeds compute fan-out.
func (r *Remote) WithWorkers(n int) *Remote {
	cp := *r
	cp.workers = n
	return &cp
}

// Fetch implements core.Source: every run becomes one variable's wants,
// and all of them travel in one batched round trip per shard.
func (r *Remote) Fetch(ctx context.Context, runs []core.Run) ([][][]byte, error) {
	wants := map[string][]int{}
	for vi, run := range runs {
		for fi := run.Lo; fi < run.Hi; fi++ {
			wants[r.vars[vi].Name] = append(wants[r.vars[vi].Name], fi)
		}
	}
	got, err := r.c.FragmentsWorkers(ctx, r.dataset, wants, r.workers)
	if err != nil {
		return nil, err
	}
	out := make([][][]byte, len(runs))
	for vi, run := range runs {
		for fi := run.Lo; fi < run.Hi; fi++ {
			out[vi] = append(out[vi], got[r.vars[vi].Name][fi])
		}
	}
	return out, nil
}

// WireBytes implements core.Source with the client's wire counter, which
// every Remote sharing the client adds to.
func (r *Remote) WireBytes() int64 { return r.c.wireBytes.Load() }
