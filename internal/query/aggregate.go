package query

import (
	"context"
	"sort"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vec"
)

// batchCheckEvery is how many batches the columnar loop consumes between
// cooperative cancellation checks.
const batchCheckEvery = 8

// AggregateCtx executes a compiled window-aggregate plan: the columnar
// batch engine when the planner (or a USING hint) chose the ColumnarScan
// leaf, the row reference engine otherwise. Both executions fold
// elements in arrival (ES) order, so floating-point accumulation is
// bit-identical across the two engines — the invariant the differential
// harness asserts. pq is the planner's view of the query (for access-
// path entry on the row side), event whether the relation is
// event-stamped, and the returned stats feed the batch counters.
func (en *Engine) AggregateCtx(ctx context.Context, node *plan.Node, pq plan.Query, spec *vec.Spec, event bool) (*vec.AggResult, vec.ExecStats, error) {
	var stats vec.ExecStats
	leaf := node.Leaf()
	if leaf.Kind == plan.ColumnarScan {
		r := storage.NewBatchReader(en.store, event)
		if spec.Filter.HasVT {
			r.SetVTWindow(chronon.Chronon(spec.Filter.VTLo), chronon.Chronon(spec.Filter.VTHi))
		}
		if spec.Filter.AsOf {
			r.SetAsOf(chronon.Chronon(spec.Filter.TT))
		} else {
			r.SetCurrentOnly()
		}
		agg, err := vec.NewColAgg(spec)
		if err != nil {
			return nil, stats, err
		}
		var b vec.Batch
		for {
			ok, err := r.Next(&b)
			if err != nil {
				return nil, stats, err
			}
			if !ok {
				break
			}
			if err := agg.Consume(&b, &stats); err != nil {
				return nil, stats, err
			}
			if stats.Batches%batchCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, stats, err
				}
			}
		}
		res, err := agg.Result()
		if err != nil {
			return nil, stats, err
		}
		return res, stats, nil
	}
	elems, touched := en.aggregateCandidates(leaf, pq)
	stats.Rows = int64(touched)
	res, err := vec.RowAggregate(ctx, spec, elems)
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}

// aggregateCandidates materializes the row engine's input through the
// planned access path. The spec re-applies every predicate, so a
// superset is always sound; what matters is arrival (ES) order, which
// the log-backed paths yield naturally and the vt-index path restores
// by sorting — float sums must accumulate in the same order as the
// columnar engine's batch stream.
func (en *Engine) aggregateCandidates(leaf *plan.Node, pq plan.Query) ([]*element.Element, int) {
	switch leaf.Kind {
	case plan.TTWindowPushdown, plan.VTBinarySearch:
		return en.execute(leaf, pq)
	case plan.BTreeIndexSeek:
		els, touched := en.execute(leaf, pq)
		sorted := append([]*element.Element(nil), els...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ES < sorted[j].ES })
		return sorted, touched
	}
	els := storage.Elements(en.store)
	return els, len(els)
}
