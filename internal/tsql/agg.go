package tsql

// Temporal aggregation: lowering the GROUP BY WINDOW form onto the vec
// execution layer. BuildAggSpec compiles the statement's clauses into
// one vec.Spec — the valid/transaction-time selection as a vectorizable
// filter, Allen WHEN clauses and WHERE conjuncts as a residual row
// predicate, the aggregate list as typed calls with column getters —
// and both engines (row reference and columnar batch) execute that same
// Spec, which is what makes their answers comparable bit for bit.
//
// Semantics follow snapshot reduction over valid time: an element
// contributes to every window its valid extent [vt⊢, vt⊣) overlaps
// (events as the single chronon [vt, vt+1)), clamped to the WHEN window
// when one is given. Allen WHEN clauses select whole elements (their
// full extent contributes), matching their row-query meaning.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/vec"
)

// BuildAggSpec compiles an aggregate statement against a schema.
func BuildAggSpec(q *Query, schema relation.Schema) (*vec.Spec, error) {
	if q.Group == nil {
		return nil, fmt.Errorf("tsql: not an aggregate query")
	}
	spec := &vec.Spec{Width: q.Group.Width, WKind: q.Group.Kind, K: q.Group.K}
	if q.HasAsOf {
		spec.Filter.AsOf = true
		spec.Filter.TT = int64(q.AsOf)
	}
	var residuals []func(*element.Element) (bool, error)
	if q.When != nil {
		switch q.When.Kind {
		case WhenValidAt:
			spec.Filter.HasVT = true
			spec.Filter.VTLo = int64(q.When.At)
			spec.Filter.VTHi = int64(q.When.At) + 1
		case WhenValidDuring:
			spec.Filter.HasVT = true
			spec.Filter.VTLo = int64(q.When.Window.Start)
			spec.Filter.VTHi = int64(q.When.Window.End)
		case WhenAllen:
			w := q.When
			residuals = append(residuals, func(e *element.Element) (bool, error) {
				return matchWhen(w, e)
			})
		}
	}
	for _, p := range q.Where {
		f, err := predicate(schema, p)
		if err != nil {
			return nil, err
		}
		residuals = append(residuals, f)
	}
	if len(residuals) == 1 {
		spec.Residual = residuals[0]
	} else if len(residuals) > 1 {
		spec.Residual = func(e *element.Element) (bool, error) {
			for _, f := range residuals {
				ok, err := f(e)
				if err != nil || !ok {
					return false, err
				}
			}
			return true, nil
		}
	}
	for _, a := range q.Aggs {
		call := vec.AggCall{Col: a.Col}
		switch a.Func {
		case "count":
			call.Kind = vec.AggCount
		case "sum":
			call.Kind = vec.AggSum
		case "min":
			call.Kind = vec.AggMin
		case "max":
			call.Kind = vec.AggMax
		default:
			return nil, fmt.Errorf("tsql: unknown aggregate %q", a.Func)
		}
		if a.Col != "" {
			g, err := columnGetter(schema, a.Col)
			if err != nil {
				return nil, err
			}
			call.Get = g
		}
		spec.Aggs = append(spec.Aggs, call)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// AggColumns names an aggregate result's columns: the window bounds,
// then one column per call (count, or func_col).
func AggColumns(q *Query) []string {
	cols := make([]string, 0, 2+len(q.Aggs))
	cols = append(cols, "win_start", "win_end")
	for _, a := range q.Aggs {
		if a.Col == "" {
			cols = append(cols, a.Func)
		} else {
			cols = append(cols, a.Func+"_"+a.Col)
		}
	}
	return cols
}

// AggToResult shapes an engine's window list into the tabular Result,
// applying LIMIT to the emitted windows.
func AggToResult(q *Query, r *vec.AggResult) *Result {
	res := &Result{Columns: AggColumns(q)}
	n := len(r.Start)
	if q.HasLimit && q.Limit < n {
		n = q.Limit
	}
	for i := 0; i < n; i++ {
		row := make([]element.Value, 0, 2+len(r.Vals[i]))
		row = append(row,
			element.Time(chronon.Chronon(r.Start[i])),
			element.Time(chronon.Chronon(r.End[i])))
		row = append(row, r.Vals[i]...)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// EvalAggregate is the standalone aggregate evaluation: the row
// reference engine over a materialized version list (the shell's local
// mode and EvalOnCtx both land here).
func EvalAggregate(ctx context.Context, q *Query, schema relation.Schema, versions []*element.Element) (*Result, error) {
	spec, err := BuildAggSpec(q, schema)
	if err != nil {
		return nil, err
	}
	agg, err := vec.RowAggregate(ctx, spec, versions)
	if err != nil {
		return nil, err
	}
	return AggToResult(q, agg), nil
}

// aggNote describes the aggregate list and window geometry for the
// window-aggregate plan node.
func aggNote(q *Query) string {
	parts := make([]string, len(q.Aggs))
	for i, a := range q.Aggs {
		col := a.Col
		if col == "" {
			col = "*"
		}
		parts[i] = fmt.Sprintf("%s(%s)", a.Func, col)
	}
	note := fmt.Sprintf("%s window %d %v", strings.Join(parts, ", "), q.Group.Width, q.Group.Kind)
	if q.Group.Kind == vec.Rolling {
		note += fmt.Sprintf(" %d", q.Group.K)
	}
	return note
}

// Fingerprint canonicalizes the parsed statement for the query-result
// cache: two texts that parse to the same Query share one cache entry,
// and every semantically distinct clause (including the USING hint,
// which changes the plan the entry records) lands in the key.
func (q *Query) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rel=%s", q.Rel)
	for _, c := range q.Columns {
		fmt.Fprintf(&b, ";col=%s", c)
	}
	for _, a := range q.Aggs {
		fmt.Fprintf(&b, ";agg=%s(%s)", a.Func, a.Col)
	}
	if q.Group != nil {
		fmt.Fprintf(&b, ";win=%d,%v,%d", q.Group.Width, q.Group.Kind, q.Group.K)
	}
	fmt.Fprintf(&b, ";pick=%v", q.Pick)
	if q.HasAsOf {
		fmt.Fprintf(&b, ";asof=%d", int64(q.AsOf))
	}
	if w := q.When; w != nil {
		fmt.Fprintf(&b, ";when=%d,%d,%d,%d,%v",
			w.Kind, int64(w.At), int64(w.Window.Start), int64(w.Window.End), w.Rel)
	}
	for _, p := range q.Where {
		fmt.Fprintf(&b, ";where=%s %s %d,%v,%d,%v,%q,%v",
			p.Col, p.Op, p.Lit.Kind, p.Lit.Number, p.Lit.Int, p.Lit.IsInt, p.Lit.Str, p.Lit.Bool)
	}
	if q.OrderBy != "" {
		fmt.Fprintf(&b, ";order=%s,%v", q.OrderBy, q.OrderDesc)
	}
	if q.HasLimit {
		fmt.Fprintf(&b, ";limit=%d", q.Limit)
	}
	return b.String()
}
