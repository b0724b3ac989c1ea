package catalog

import (
	"context"
	"sort"
	"strconv"
	"sync"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tsql"
)

// answer is what one read computes on a miss and the result cache replays
// on a hit: the value the caller renders, the plan that executed (nil for
// a planning-only read, which books nothing), its access-path cost, and
// the value's approximate resident bytes for the cache's budget.
type answer[T any] struct {
	val     T
	node    *plan.Node
	touched int
	size    int64
}

// read is the catalog's one read step. It pins the published view with a
// single atomic load — readers never take the relation lock, so a steady
// writer cannot convoy them — answers from the result cache under
// (relation, fp, epoch) when it can, and otherwise runs exec against the
// pinned view and fills the cache. Every answer books its plan kind on the
// entry's registry: with the touched count when it executed, with 0 on a
// cache hit (nothing was scanned). An empty fp bypasses the cache. The
// returned epoch is the pinned view's, the validator the answer is good
// for.
func read[T any](ctx context.Context, e *Entry, fp string, exec func(v *readView) (answer[T], error)) (answer[T], uint64, error) {
	if err := ctx.Err(); err != nil {
		return answer[T]{}, 0, err
	}
	v := e.view.Load()
	key := qcache.Key{Rel: e.name, Fingerprint: fp, Epoch: v.epoch}
	var a answer[T]
	hit := false
	if fp != "" {
		var c any
		if c, hit = e.cache.Get(key); hit {
			a = c.(answer[T])
		}
	}
	touched := 0
	if !hit {
		var err error
		if a, err = exec(v); err != nil {
			return answer[T]{}, 0, err
		}
		touched = a.touched
		if fp != "" {
			e.cache.Put(key, a, a.size)
		}
	}
	if a.node != nil {
		e.plans.Record(a.node.Leaf().Kind, touched)
	}
	return a, v.epoch, nil
}

// QueryResult is a catalog query answer with its access-path accounting.
type QueryResult struct {
	Elements []*element.Element
	Plan     string
	// Node is the typed plan the engine executed; Plan is its rendering.
	Node    *plan.Node
	Touched int
	// Epoch is the mutation epoch the result was computed against — the
	// validator the server exposes as an ETag.
	Epoch uint64
}

// QueryCtx answers one of the engine's query shapes — current, time-slice,
// rollback, or the bitemporal as-of — through the read step.
//
// No physical organization indexes both time dimensions, so the planner
// prices as-of as the bitemporal full scan and it scans the pinned view's
// elements. That makes it the catalog's most expensive read, so the scan
// is cooperative: it re-checks the context periodically and stops mid-scan
// when the caller is gone.
func (e *Entry) QueryCtx(ctx context.Context, pq plan.Query) (QueryResult, error) {
	a, _, err := read(ctx, e, shapeFingerprint(pq), func(v *readView) (answer[QueryResult], error) {
		var res query.Result
		if pq.Kind == plan.QAsOf {
			node := v.engine.Plan(pq)
			els, err := relation.AsOfScan(ctx, v.elems, chronon.Chronon(pq.VTLo), chronon.Chronon(pq.TT))
			if err != nil {
				return answer[QueryResult]{}, err
			}
			res = query.Result{Elements: els, Plan: node.String(), Node: node, Touched: len(v.elems)}
		} else {
			res = v.engine.Run(pq)
		}
		qr := QueryResult{Elements: res.Elements, Plan: res.Plan, Node: res.Node, Touched: res.Touched, Epoch: v.epoch}
		return answer[QueryResult]{val: qr, node: qr.Node, touched: qr.Touched, size: resultSize(qr)}, nil
	})
	return a.val, err
}

// CurrentCtx answers the conventional query.
func (e *Entry) CurrentCtx(ctx context.Context) (QueryResult, error) {
	return e.QueryCtx(ctx, plan.Query{Kind: plan.QCurrent})
}

// TimesliceCtx answers the historical query at vt.
func (e *Entry) TimesliceCtx(ctx context.Context, vt chronon.Chronon) (QueryResult, error) {
	return e.QueryCtx(ctx, plan.Query{Kind: plan.QTimeslice, VTLo: int64(vt), VTHi: int64(vt) + 1})
}

// RollbackCtx answers the rollback query at tt.
func (e *Entry) RollbackCtx(ctx context.Context, tt chronon.Chronon) (QueryResult, error) {
	return e.QueryCtx(ctx, plan.Query{Kind: plan.QRollback, TT: int64(tt)})
}

// TimesliceAsOfCtx answers the bitemporal query: elements valid at vt as
// stored at tt.
func (e *Entry) TimesliceAsOfCtx(ctx context.Context, vt, tt chronon.Chronon) (QueryResult, error) {
	return e.QueryCtx(ctx, plan.Query{Kind: plan.QAsOf, VTLo: int64(vt), TT: int64(tt)})
}

// shapeFingerprint is the cache fingerprint of an engine query shape.
func shapeFingerprint(pq plan.Query) string {
	b := make([]byte, 0, 64)
	b = append(b, "q:"...)
	b = strconv.AppendUint(b, uint64(pq.Kind), 10)
	for _, n := range [...]int64{pq.VTLo, pq.VTHi, pq.TT} {
		b = append(b, ':')
		b = strconv.AppendInt(b, n, 10)
	}
	return string(b)
}

// resultSize approximates a cached result's resident bytes for the
// cache's byte budget: a fixed element overhead plus its value slices,
// plus the plan rendering. Precision doesn't matter — the budget only has
// to scale with the real footprint.
func resultSize(qr QueryResult) int64 {
	n := int64(len(qr.Plan)) + 64
	for _, el := range qr.Elements {
		n += 128 + 32*int64(len(el.Invariant)+len(el.Varying)+len(el.UserTimes))
	}
	return n
}

// SelectCtx evaluates a parsed tsql query against the pinned view,
// lock-free, through the read step. The query's Rel must name this entry.
// Window aggregates (GROUP BY WINDOW) are cached under "agg:" plus the
// statement's fingerprint; plain statements are not cached. The returned
// node is the executed plan; touched is its access-path cost.
func (e *Entry) SelectCtx(ctx context.Context, q *tsql.Query) (*tsql.Result, *plan.Node, int, error) {
	fp := ""
	if q.Group != nil {
		fp = "agg:" + q.Fingerprint()
	}
	a, _, err := read(ctx, e, fp, func(v *readView) (answer[*tsql.Result], error) {
		if q.Group != nil {
			return e.aggregate(ctx, v, q)
		}
		return selectRows(ctx, v, q)
	})
	return a.val, a.node, a.touched, err
}

// selectScratch pools candidate slices for SELECTs that must re-sort an
// index seek's output into insertion order, so the hot path stops
// allocating a fresh slice per query.
var selectScratch = sync.Pool{New: func() any { return new([]*element.Element) }}

// esOrdered reports whether the candidates already carry ascending
// element surrogates. Surrogates are assigned in insertion order and the
// log organizations yield arrival order, so only the B-tree index seek
// (vt-key order over a heap) normally fails this and pays the sort.
func esOrdered(els []*element.Element) bool {
	for i := 1; i < len(els); i++ {
		if els[i].ES < els[i-1].ES {
			return false
		}
	}
	return true
}

// selectRows evaluates a plain SELECT on the engine's planned access path:
// when the plan's leaf is a specialized strategy (vt binary search,
// tt-window pushdown, index seek), the engine produces the candidate set
// and only it is evaluated; otherwise every version is scanned,
// cooperatively re-checking the context.
func selectRows(ctx context.Context, v *readView, q *tsql.Query) (answer[*tsql.Result], error) {
	node := tsql.Compile(q, v.engine.Access())
	var res *tsql.Result
	var err error
	touched := len(v.elems)
	switch node.Leaf().Kind {
	case plan.VTBinarySearch, plan.TTWindowPushdown, plan.BTreeIndexSeek:
		pq := tsql.PlanQuery(q)
		qres := v.engine.VTRange(chronon.Chronon(pq.VTLo), chronon.Chronon(pq.VTHi))
		touched = qres.Touched
		if esOrdered(qres.Elements) {
			// Already the backlog scan's row order; evaluate in place.
			res, err = tsql.EvalOnCtx(ctx, q, v.schema, qres.Elements)
			break
		}
		// An ES sort restores the backlog scan's row order exactly; sort a
		// pooled scratch copy, never the store's slice.
		sp := selectScratch.Get().(*[]*element.Element)
		cands := append((*sp)[:0], qres.Elements...)
		sort.Slice(cands, func(i, j int) bool { return cands[i].ES < cands[j].ES })
		res, err = tsql.EvalOnCtx(ctx, q, v.schema, cands)
		clear(cands) // drop element references before pooling
		*sp = cands[:0]
		selectScratch.Put(sp)
	default:
		res, err = tsql.EvalOnCtx(ctx, q, v.schema, v.elems)
	}
	if err != nil {
		return answer[*tsql.Result]{}, err
	}
	return answer[*tsql.Result]{val: res, node: node, touched: touched}, nil
}

// Explained is a plan built without running it, with the organization it
// targets and the epoch of the view it was planned against.
type Explained struct {
	Node   *plan.Node
	Store  storage.Kind
	Source string
	Epoch  uint64
}

// ExplainCtx plans a query against the pinned view without running it,
// through the read step: fp is the caller's canonical form of the query
// (cached under "explain:" plus fp), and build turns the view's access
// description into the plan. Planning books no plan kind.
func (e *Entry) ExplainCtx(ctx context.Context, fp string, build func(plan.Access) *plan.Node) (Explained, error) {
	a, epoch, err := read(ctx, e, "explain:"+fp, func(v *readView) (answer[Explained], error) {
		ex := Explained{Node: build(v.engine.Access()), Store: v.advice.Store, Source: v.advice.Source}
		return answer[Explained]{val: ex, size: int64(len(fp)) + 512}, nil
	})
	a.val.Epoch = epoch
	return a.val, err
}

// PlanFor builds the plan for one of the engine's query shapes, without
// executing it. It reads the published view's engine — one atomic load,
// no relation lock — so planning traffic never queues behind writers.
func (e *Entry) PlanFor(pq plan.Query) *plan.Node {
	return e.view.Load().engine.Plan(pq)
}
