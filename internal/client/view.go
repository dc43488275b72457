package client

// Topology views: the client-side half of elastic cluster membership.
// The routable endpoint set lives in an immutable, epoch-numbered
// clusterView behind an atomic pointer — the mirror image of the
// server's hot-publish catalog swap. Requests load the current view at
// the start of every retry pass, rank its endpoints by rendezvous hash,
// and enforce the replication-factor invariant against that view (repl
// is clamped per view, not per request), so a node joining or leaving
// moves only ~1/N of the key space and never invalidates an in-flight
// pass. RefreshTopology fetches /v1/cluster and installs the live
// membership as a new view; Options.TopologyRefresh runs it on a timer,
// and a fully failed retry pass forces it early so a rolling restart is
// observed within one backoff, not one refresh period.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"progqoi/internal/server"
)

// refreshTimeout bounds one topology refresh round trip made by the
// background refresher (foreground refreshes inherit their caller's
// context).
const refreshTimeout = 5 * time.Second

// clusterView is one immutable snapshot of the routable cluster. A new
// membership observation builds a new view and swaps the pointer;
// nothing mutates a published view.
type clusterView struct {
	// epoch counts installed views in this client, monotonically: any
	// two Stats snapshots with equal epochs saw the identical routable
	// set. (Client-local on purpose — different cluster nodes report
	// their own server-side epochs, which need not agree mid-change.)
	epoch int64
	// eps are the routable endpoints: the cluster's alive members.
	// Suspect and draining nodes are excluded; endpoints removed from
	// the view keep their identity (breaker state, counters) in the
	// client registry and re-enter cheaply when they rejoin.
	eps []*endpoint
	// repl is the replica-set size enforced against THIS view:
	// Options.Replication clamped to the view's endpoint count. Shrink
	// the cluster below the configured factor and the invariant degrades
	// explicitly here instead of silently per request.
	repl int
}

// view returns the current topology view; never nil after New.
func (c *Client) view() *clusterView { return c.topo.Load() }

// intern returns the canonical endpoint object for base, creating it on
// first sight. Endpoint identity survives view swaps: a node that leaves
// and rejoins keeps its breaker history and traffic counters, and Stats
// keeps reporting endpoints that are no longer routable.
func (c *Client) intern(base string) *endpoint {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	if ep := c.epByURL[base]; ep != nil {
		return ep
	}
	ep := &endpoint{base: base, hash: fnv64(base)}
	c.epByURL[base] = ep
	c.epOrder = append(c.epOrder, ep)
	return ep
}

// installView publishes the given base URLs as the new routable view,
// skipping invalid or duplicate entries. It reports whether a new view
// was installed: an unchanged set installs nothing (in-flight passes and
// Stats.TopologyEpoch stay put), and an empty set is never installed —
// a refresh that would strand the client keeps the last good view, whose
// endpoints are still the best place to ask for the next topology.
func (c *Client) installView(bases []string) bool {
	var eps []*endpoint
	seen := map[string]bool{}
	for _, u := range bases {
		base := strings.TrimRight(u, "/")
		if base == "" || seen[base] ||
			(!strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://")) {
			continue
		}
		seen[base] = true
		eps = append(eps, c.intern(base))
	}
	if len(eps) == 0 {
		return false
	}
	repl := c.opts.Replication
	if repl > len(eps) {
		repl = len(eps)
	}
	for {
		cur := c.topo.Load()
		if cur != nil && sameEndpointSet(cur.eps, eps) {
			return false
		}
		var epoch int64 = 1
		if cur != nil {
			epoch = cur.epoch + 1
		}
		if c.topo.CompareAndSwap(cur, &clusterView{epoch: epoch, eps: eps, repl: repl}) {
			if cur != nil {
				c.viewSwaps.Add(1)
			}
			return true
		}
	}
}

// sameEndpointSet reports whether two views route to the same endpoints.
// Interning makes pointer identity canonical per base URL, and
// rendezvous ranking makes slice order irrelevant.
func sameEndpointSet(a, b []*endpoint) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[*endpoint]bool, len(a))
	for _, ep := range a {
		in[ep] = true
	}
	for _, ep := range b {
		if !in[ep] {
			return false
		}
	}
	return true
}

// routableFrom derives the routable base URLs from a /v1/cluster
// payload. Elastic servers list Members: alive ones are routable,
// suspect and draining ones are not. Legacy servers (no Members) expose
// advertise+peers; source (the endpoint that answered) stands in when
// the node does not know its own public URL. Static peers are honored in
// both cases — an operator-configured -peers list outranks gossip.
func routableFrom(info *server.ClusterInfo, source string) []string {
	var bases []string
	for _, m := range info.Members {
		if m.State == server.MemberAlive {
			bases = append(bases, m.Addr)
		}
	}
	if len(info.Members) == 0 {
		if info.Advertise != "" {
			bases = append(bases, info.Advertise)
		} else {
			bases = append(bases, source)
		}
	}
	return append(bases, info.Peers...)
}

// RefreshTopology re-resolves the cluster membership: it fetches
// /v1/cluster from the current view's endpoints (rendezvous order, so
// refresh load spreads like any other path-keyed request) and installs
// the answer as a new view. It reports whether the routable set changed.
// When every endpoint is unreachable the current view is kept and the
// last error returned. Safe for concurrent use.
func (c *Client) RefreshTopology(ctx context.Context) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var lastErr error
	for _, ep := range rankEndpoints(c.view().eps, "/v1/cluster") {
		data, err, _, _ := c.attempt(ctx, ep, "GET", "/v1/cluster", nil, "", -1)
		if err != nil {
			if ctx.Err() != nil {
				return false, err
			}
			lastErr = err
			continue
		}
		var info server.ClusterInfo
		if err := json.Unmarshal(data, &info); err != nil {
			lastErr = fmt.Errorf("client: cluster info from %s: %w", ep.base, err)
			continue
		}
		return c.installView(routableFrom(&info, ep.base)), nil
	}
	return false, lastErr
}

// refreshAfterFailedPass forces a topology re-resolve between retry
// passes — a whole pass with every endpoint failing is the signature of
// a topology change (rolling restart), and waiting out the refresh timer
// would burn the remaining retry budget on dead endpoints. Elastic mode
// only: static clients (no TopologyRefresh) keep their original retry
// behavior untouched.
func (c *Client) refreshAfterFailedPass(ctx context.Context) {
	if c.opts.TopologyRefresh <= 0 {
		return
	}
	_, _ = c.RefreshTopology(ctx)
}

// refresher is the background topology loop started by New when
// Options.TopologyRefresh is set; Close stops it.
func (c *Client) refresher() {
	defer c.refreshWG.Done()
	t := time.NewTicker(c.opts.TopologyRefresh)
	defer t.Stop()
	for {
		select {
		case <-c.refreshStop:
			return
		case <-t.C:
		}
		// Topology maintenance belongs to the shared client, not to
		// whichever session happens to be running, so the refresh detaches
		// from session contexts and times itself out.
		//progqoivet:allow ctxflow -- background topology refresh outlives any one session; Close stops the loop
		ctx, cancel := context.WithTimeout(context.Background(), refreshTimeout)
		_, _ = c.RefreshTopology(ctx)
		cancel()
	}
}

// Close stops the background topology refresher and waits for it. A
// client without one closes trivially; Close is idempotent and the
// client remains usable for requests afterwards (the view just stops
// following the cluster).
func (c *Client) Close() {
	c.closeOnce.Do(func() { close(c.refreshStop) })
	c.refreshWG.Wait()
}

// epSnapshot copies the registry in first-seen order (configured
// endpoints first, then discovered ones) for Stats and Endpoints.
func (c *Client) epSnapshot() []*endpoint {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	return append([]*endpoint(nil), c.epOrder...)
}
