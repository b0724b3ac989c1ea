package client

// Router fans a multi-node tsdbd deployment out behind the single-node
// client API. Relation names are consistent-hashed over the node set, so
// each relation has a stable owner whose cache and published views stay
// hot for it; single-relation reads pin to that owner and walk the ring
// (then the primary) when a node refuses connections; multi-relation
// work fans out concurrently, one owner per relation; and mutations
// always go to the primary — followers are read-only and answer writes
// with the typed "read_only" refusal.
//
// Staleness is explicit, never silent: followers stamp every response
// with X-Tsdbd-Staleness-Ms (the bound on how far they may trail the
// primary), and a Router built WithMaxStaleness re-issues any read whose
// bound exceeds the budget — or carries no bound at all — against the
// primary, which is never stale.

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/tsql"
	"repro/internal/wire"
)

// ringVnodes is how many virtual points each node contributes to the
// hash ring. 64 keeps the relation spread within a few percent of even
// for small clusters without making ring construction noticeable.
const ringVnodes = 64

// Router routes requests across one primary and any number of follower
// nodes. Safe for concurrent use.
type Router struct {
	primary *Client
	nodes   []*Client // index 0 is the primary, then followers
	ring    hashRing
	// maxStaleness bounds how stale a follower read may be; 0 accepts
	// any synced follower.
	maxStaleness time.Duration
	clientOpts   []Option
}

// RouterOption customizes a Router.
type RouterOption func(*Router)

// WithMaxStaleness makes every routed read enforce a freshness budget:
// a follower response whose staleness bound exceeds d (or that carries
// no bound — the follower has never synced) is discarded and the read
// re-issued against the primary.
func WithMaxStaleness(d time.Duration) RouterOption {
	return func(r *Router) { r.maxStaleness = d }
}

// WithClientOptions passes client options (transport, retry policy) to
// every per-node client the router builds.
func WithClientOptions(opts ...Option) RouterOption {
	return func(r *Router) { r.clientOpts = opts }
}

// NewRouter builds a router over the primary and follower base URLs.
func NewRouter(primary string, followers []string, opts ...RouterOption) *Router {
	r := &Router{}
	for _, o := range opts {
		o(r)
	}
	r.primary = New(primary, r.clientOpts...)
	r.nodes = append(r.nodes, r.primary)
	for _, f := range followers {
		r.nodes = append(r.nodes, New(f, r.clientOpts...))
	}
	r.ring = buildRing(r.nodes)
	return r
}

// Primary exposes the primary's client — the write side of the topology.
func (r *Router) Primary() *Client { return r.primary }

// Owner reports the base URL of the node that owns rel on the ring.
// Deterministic for a fixed node set, so every router instance over the
// same topology pins a relation to the same node.
func (r *Router) Owner(rel string) string {
	return r.nodes[r.ring.owner(rel)].BaseURL()
}

// hashRing is a consistent-hash ring of virtual node points.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into Router.nodes
}

func buildRing(nodes []*Client) hashRing {
	ring := hashRing{points: make([]ringPoint, 0, len(nodes)*ringVnodes)}
	for i, n := range nodes {
		for v := 0; v < ringVnodes; v++ {
			ring.points = append(ring.points, ringPoint{
				hash: hash64(n.BaseURL() + "#" + strconv.Itoa(v)),
				node: i,
			})
		}
	}
	sort.Slice(ring.points, func(a, b int) bool { return ring.points[a].hash < ring.points[b].hash })
	return ring
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// splitmix64 finalizer: raw fnv of short, similar keys ("…#0", "…#1")
	// avalanches so poorly that all vnodes land in one narrow band of the
	// ring and a single node ends up owning every relation.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// owner maps a relation to its owning node index.
func (r hashRing) owner(rel string) int {
	return r.points[r.at(rel)].node
}

// at finds the first ring point at or after the relation's hash.
func (r hashRing) at(rel string) int {
	h := hash64(rel)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// candidates orders the node indexes to try for a read of rel: the
// owner first, then each distinct node walking the ring clockwise, with
// the primary guaranteed present (it ends up last unless the ring walk
// reaches it earlier). Every router over the same topology produces the
// same order, so the fallback load stays as pinned as the primary path.
func (r *Router) candidates(rel string) []int {
	out := make([]int, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i, n := r.ring.at(rel), 0; n < len(r.ring.points) && len(out) < len(r.nodes); i, n = (i+1)%len(r.ring.points), n+1 {
		if p := r.ring.points[i]; !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	if !seen[0] {
		out = append(out, 0)
	}
	return out
}

// read runs fn against each candidate node for rel until one answers.
// A refused connection hops to the next node (nothing executed, so the
// hop is free); any other error is the answer. A follower response
// violating the staleness budget falls back to the primary.
func (r *Router) read(ctx context.Context, rel string, fn func(c *Client, hdr *http.Header) error) error {
	var lastErr error
	for _, n := range r.candidates(rel) {
		node := r.nodes[n]
		var hdr http.Header
		err := fn(node, &hdr)
		if err != nil {
			if IsConnRefused(err) {
				lastErr = err
				continue
			}
			return err
		}
		if node != r.primary && !r.freshEnough(hdr) {
			// Too stale (or unsynced): the primary is the only node whose
			// answer is current by construction.
			var phdr http.Header
			if perr := fn(r.primary, &phdr); !IsConnRefused(perr) {
				return perr
			}
			// Primary down: the bounded-staleness answer already decoded
			// into out is the best available; serve it.
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("tsdbd: router has no nodes")
	}
	return lastErr
}

// freshEnough checks a follower response's staleness bound against the
// router's budget. No budget accepts any bounded response; no header
// means the node never synced, which no budget accepts.
func (r *Router) freshEnough(hdr http.Header) bool {
	s := hdr.Get(wire.HeaderStaleness)
	if s == "" {
		return false
	}
	if r.maxStaleness <= 0 {
		return true
	}
	ms, err := strconv.ParseInt(s, 10, 64)
	return err == nil && ms <= r.maxStaleness.Milliseconds()
}

// Query routes one of the four temporal query kinds to the relation's
// owner, falling back across the ring and to the primary as needed.
func (r *Router) Query(ctx context.Context, rel string, req QueryRequest) (QueryResponse, error) {
	var out QueryResponse
	err := r.read(ctx, rel, func(c *Client, hdr *http.Header) error {
		return c.call(ctx, http.MethodPost, "/v1/relations/"+rel+"/query", req, &out,
			callOpts{safe: true, hdr: hdr, failFast: true})
	})
	return out, err
}

// Select parses the statement for its relation and routes it to that
// relation's owner.
func (r *Router) Select(ctx context.Context, query string) (SelectResponse, error) {
	q, err := tsql.Parse(query)
	if err != nil {
		return SelectResponse{}, fmt.Errorf("tsdbd: routing select: %w", err)
	}
	var out SelectResponse
	err = r.read(ctx, q.Rel, func(c *Client, hdr *http.Header) error {
		return c.call(ctx, http.MethodPost, "/v1/select", wire.SelectRequest{Query: query}, &out,
			callOpts{safe: true, hdr: hdr, failFast: true})
	})
	return out, err
}

// FanOut runs several tsql SELECTs concurrently, each routed to its
// relation's owner, and returns the responses in input order. The first
// error (if any) is returned alongside whatever completed; a caller that
// needs all-or-nothing checks err before touching the slice.
func (r *Router) FanOut(ctx context.Context, queries []string) ([]SelectResponse, error) {
	out := make([]SelectResponse, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			out[i], errs[i] = r.Select(ctx, q)
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Insert routes the mutation to the primary (followers are read-only).
func (r *Router) Insert(ctx context.Context, rel string, req InsertRequest) (Element, error) {
	return r.primary.Insert(ctx, rel, req)
}

// Delete routes the mutation to the primary.
func (r *Router) Delete(ctx context.Context, rel string, es uint64) error {
	return r.primary.Delete(ctx, rel, es)
}

// Modify routes the mutation to the primary.
func (r *Router) Modify(ctx context.Context, rel string, es uint64, vt Timestamp, varying []Value) (Element, error) {
	return r.primary.Modify(ctx, rel, es, vt, varying)
}

// Create routes the DDL to the primary; the new relation reaches the
// followers through the replication feed like any other mutation.
func (r *Router) Create(ctx context.Context, schema Schema) (RelationInfo, error) {
	return r.primary.Create(ctx, schema)
}

// Declare routes the DDL to the primary.
func (r *Router) Declare(ctx context.Context, rel string, descs ...Descriptor) (DeclareResponse, error) {
	return r.primary.Declare(ctx, rel, descs...)
}
