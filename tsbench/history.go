package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/wire"
)

// The history-reads workload: read-only temporal queries over a
// specialized relation (sensor: declared non-decreasing, migrated by the
// advisor to a vt-ordered log with sealed runs) and a general one
// (payroll: interval versions with retroactive corrections).
var historyWorkload = workload{
	why: "read-only time-slice, as-of, rollback and window aggregates, Zipf-skewed, on a specialized 200k-event log and a general 50k-version payroll: plan, query, vec, qcache and encoding dominate",
	params: func(s sizes) map[string]any {
		return map[string]any{
			"sensor":  fmt.Sprintf("%d events, declared globally non-decreasing, advisor pass", s.SensorEvents),
			"payroll": fmt.Sprintf("%d employees x %d periods + %d retroactive modifies", s.PayrollEmployees, s.PayrollPeriods, s.PayrollModifies),
			"mix":     "30% sensor time-slice, 15% sensor as-of, 15% payroll time-slice, 10% payroll rollback, 20% sensor aggregate, 10% payroll aggregate",
			"zipf":    fmt.Sprintf("s=%.2f over %d points per query kind", zipfS, s.ZipfPoints),
			"clients": clients, "warmup_share": warmupShare, "cache_bytes": cacheBytes,
		}
	},
	round:  historyRound,
	ladder: historyLadder,
}

const (
	zipfS         = 1.1
	warmupShare   = 0.2
	sensorVT0     = 10_000_000
	payrollVT0    = 100_000
	payPeriod     = 30
	sensorAggSpan = 4096
	sensorAggW    = 256
	// rollbackShare: rollback points pick from the first 1/rollbackShare
	// of the payroll periods.
	rollbackShare = 32
	payAggSpan    = 4 * payPeriod
)

// ack is what a write returned: the element's surrogate and tt start.
type ack struct {
	es surrogate.Surrogate
	tt int64
}

// histItem is one element to insert.
type histItem struct {
	object   uint64 // 0 allocates a new object
	vt       int64  // event time (sensor)
	lo, hi   int64  // valid interval (payroll)
	name     string
	v        int64
	interval bool
}

// historyAPI is the write surface buildHistory needs; the HTTP
// client and the catalog entries both provide it, so the measured primary
// and the direct ladder are built by the same code.
type historyAPI interface {
	insertBatch(rel string, items []histItem) ([]ack, []uint64, error)
	modify(rel string, es surrogate.Surrogate, lo, hi, salary int64) (ack, error)
}

// sensorOracle is the acknowledged sensor backlog, in insertion (and vt)
// order.
type sensorOracle struct {
	vt, v, tt []int64
	es        []surrogate.Surrogate
}

// payVersion is one acknowledged payroll version.
type payVersion struct {
	es             surrogate.Surrogate
	lo, hi, salary int64
	ttS, ttE       int64
}

type payrollOracle struct {
	vs []payVersion
}

// history is the built state: both oracles plus the query parameter
// spaces derived from them.
type history struct {
	sensor  sensorOracle
	payroll payrollOracle
	// earlyVersions bounds the payroll versions rollback points pick
	// from: the first 1/rollbackShare of its history, so answers stay
	// cacheable and rollbacks do not take most of the measured time.
	earlyVersions int
	// paySpan is the valid-time extent the payroll periods cover.
	paySpan int64

	// memo holds a digest of each query's expected answer once one
	// answer has matched the oracle, so a repeated query is checked
	// without evaluating the backlog again (and without the oracle's
	// CPU and garbage competing with the measured server).
	memoMu sync.Mutex
	memo   map[query][16]byte
}

// known reports whether q's expected answer has digest d.
func (h *history) known(q query, d [16]byte) bool {
	h.memoMu.Lock()
	defer h.memoMu.Unlock()
	want, ok := h.memo[q]
	return ok && want == d
}

// remember records d as the digest of q's expected answer.
func (h *history) remember(q query, d [16]byte) {
	h.memoMu.Lock()
	defer h.memoMu.Unlock()
	if h.memo == nil {
		h.memo = map[query][16]byte{}
	}
	h.memo[q] = d
}

// digest hashes a sequence of int64 fields.
func digest(fields func(put func(int64))) [16]byte {
	f := fnv.New128a()
	var b [8]byte
	fields(func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		f.Write(b[:])
	})
	var out [16]byte
	f.Sum(out[:0])
	return out
}

func digestCanon(cs []canon) [16]byte {
	return digest(func(put func(int64)) {
		for _, c := range cs {
			put(c.es)
			put(c.ttS)
			put(c.ttE)
			put(c.lo)
			put(c.hi)
			put(c.v)
		}
	})
}

func digestRows(rows [][4]int64) [16]byte {
	return digest(func(put func(int64)) {
		for _, r := range rows {
			for _, x := range r {
				put(x)
			}
		}
	})
}

// buildHistory creates, declares and loads both relations through api.
func buildHistory(seed int64, s sizes, api historyAPI) (*history, error) {
	h := &history{}
	rng := mrand.New(mrand.NewSource(seed ^ 0x415))
	vt := int64(sensorVT0)
	for i := 0; i < s.SensorEvents; i += preloadBatch {
		var items []histItem
		for j := i; j < s.SensorEvents && len(items) < preloadBatch; j++ {
			vt += 1 + int64(rng.Intn(4))
			items = append(items, histItem{vt: vt, v: int64(rng.Intn(1000))})
		}
		acks, _, err := api.insertBatch("sensor", items)
		if err != nil {
			return nil, fmt.Errorf("sensor preload: %w", err)
		}
		for k, a := range acks {
			h.sensor.vt = append(h.sensor.vt, items[k].vt)
			h.sensor.v = append(h.sensor.v, items[k].v)
			h.sensor.tt = append(h.sensor.tt, a.tt)
			h.sensor.es = append(h.sensor.es, a.es)
		}
	}

	// Payroll: each period's salaries are entered as they happen, then a
	// few retroactive corrections rewrite earlier periods.
	e, periods := s.PayrollEmployees, s.PayrollPeriods
	offsets := make([]int64, e)
	objects := make([]uint64, e)
	for i := range offsets {
		offsets[i] = int64(rng.Intn(payPeriod))
	}
	cur := make([][]int, e) // employee -> period -> index in vs
	for i := range cur {
		cur[i] = make([]int, periods)
	}
	perPeriod := s.PayrollModifies / periods
	extra := s.PayrollModifies % periods
	for p := 0; p < periods; p++ {
		items := make([]histItem, e)
		for i := range items {
			lo := payrollVT0 + int64(p)*payPeriod + offsets[i]
			items[i] = histItem{object: objects[i], lo: lo, hi: lo + payPeriod, interval: true,
				name: fmt.Sprintf("e%04d", i), v: 1000 + int64(rng.Intn(9000))}
		}
		acks, oss, err := api.insertBatch("payroll", items)
		if err != nil {
			return nil, fmt.Errorf("payroll period %d: %w", p, err)
		}
		for i, a := range acks {
			objects[i] = oss[i]
			cur[i][p] = len(h.payroll.vs)
			h.payroll.vs = append(h.payroll.vs, payVersion{es: a.es, lo: items[i].lo, hi: items[i].hi,
				salary: items[i].v, ttS: a.tt, ttE: int64(chronon.Forever)})
		}
		m := perPeriod
		if p < extra {
			m++
		}
		for k := 0; k < m; k++ {
			emp, q := rng.Intn(e), rng.Intn(p+1)
			old := &h.payroll.vs[cur[emp][q]]
			salary := 1000 + int64(rng.Intn(9000))
			a, err := api.modify("payroll", old.es, old.lo, old.hi, salary)
			if err != nil {
				return nil, fmt.Errorf("payroll correction: %w", err)
			}
			old.ttE = a.tt
			cur[emp][q] = len(h.payroll.vs)
			h.payroll.vs = append(h.payroll.vs, payVersion{es: a.es, lo: old.lo, hi: old.hi, salary: salary,
				ttS: a.tt, ttE: int64(chronon.Forever)})
		}
		if p < (periods+rollbackShare-1)/rollbackShare {
			h.earlyVersions = len(h.payroll.vs)
		}
	}
	h.paySpan = int64(periods+1) * payPeriod
	return h, nil
}

// sensorDescriptor is the sensor relation's declaration: events are
// entered in valid-time order.
func sensorDescriptor() (constraint.Descriptor, error) {
	d, ok := constraint.Describe(constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)
	if !ok {
		return d, fmt.Errorf("non-decreasing events is not describable")
	}
	return d, nil
}

func sensorSchema() client.Schema {
	return client.Schema{Name: "sensor", ValidTime: "event", Granularity: 1,
		Varying: []client.Column{{Name: "v", Type: "int"}}}
}

func payrollSchema() client.Schema {
	return client.Schema{Name: "payroll", ValidTime: "interval", Granularity: 1,
		Invariant: []client.Column{{Name: "name", Type: "string"}},
		Varying:   []client.Column{{Name: "salary", Type: "int"}}}
}

// httpHistory builds through the public client.
type httpHistory struct {
	ctx context.Context
	cli *client.Client
}

func (a httpHistory) insertBatch(rel string, items []histItem) ([]ack, []uint64, error) {
	reqs := make([]client.InsertRequest, len(items))
	for i, it := range items {
		reqs[i] = client.InsertRequest{Object: it.object, Varying: []client.Value{client.Int(it.v)}}
		if it.interval {
			reqs[i].VT = client.SpanOf(it.lo, it.hi)
			reqs[i].Invariant = []client.Value{client.String(it.name)}
		} else {
			reqs[i].VT = client.EventAt(it.vt)
		}
	}
	res, err := a.cli.InsertBatch(a.ctx, rel, reqs, true)
	if err != nil {
		return nil, nil, err
	}
	acks, oss := make([]ack, len(items)), make([]uint64, len(items))
	for i, it := range res.Items {
		if it.Element == nil {
			return nil, nil, fmt.Errorf("item %d %s: %s", i, it.Status, it.Error)
		}
		acks[i], oss[i] = ack{surrogate.Surrogate(it.Element.ES), it.Element.TTStart}, it.Element.OS
	}
	return acks, oss, nil
}

func (a httpHistory) modify(rel string, es surrogate.Surrogate, lo, hi, salary int64) (ack, error) {
	el, err := a.cli.Modify(a.ctx, rel, uint64(es), client.SpanOf(lo, hi), []client.Value{client.Int(salary)})
	return ack{surrogate.Surrogate(el.ES), el.TTStart}, err
}

// catalogHistory builds through the catalog entries, as the server does.
type catalogHistory struct {
	ctx context.Context
	cat *catalog.Catalog
}

func (a catalogHistory) insertBatch(rel string, items []histItem) ([]ack, []uint64, error) {
	e, err := a.cat.Get(rel)
	if err != nil {
		return nil, nil, err
	}
	ins := make([]relation.Insertion, len(items))
	keys := make([]string, len(items))
	for i, it := range items {
		ins[i] = relation.Insertion{Object: surrogate.Surrogate(it.object), Varying: []element.Value{element.Int(it.v)}}
		if it.interval {
			ins[i].VT = element.SpanOf(chronon.Chronon(it.lo), chronon.Chronon(it.hi))
			ins[i].Invariant = []element.Value{element.String_(it.name)}
		} else {
			ins[i].VT = element.EventAt(chronon.Chronon(it.vt))
		}
		keys[i] = idemKey()
	}
	res, err := e.InsertBatch(a.ctx, ins, keys, true)
	if err != nil {
		return nil, nil, err
	}
	acks, oss := make([]ack, len(items)), make([]uint64, len(items))
	for i, it := range res.Items {
		acks[i], oss[i] = ack{it.Elem.ES, int64(it.Elem.TTStart)}, uint64(it.Elem.OS)
	}
	return acks, oss, nil
}

func (a catalogHistory) modify(rel string, es surrogate.Surrogate, lo, hi, salary int64) (ack, error) {
	e, err := a.cat.Get(rel)
	if err != nil {
		return ack{}, err
	}
	el, err := e.ModifyKeyed(a.ctx, es, element.SpanOf(chronon.Chronon(lo), chronon.Chronon(hi)),
		[]element.Value{element.Int(salary)}, idemKey())
	if err != nil {
		return ack{}, err
	}
	return ack{el.ES, int64(el.TTStart)}, nil
}

// histOp is one read of the mix, with its parameters as indexes into the
// built history so the ladder (whose tt stamps differ) replays the same
// logical query.
type histOp struct {
	kind string // sensor-ts, sensor-asof, payroll-ts, payroll-rollback, sensor-agg, payroll-agg
	a, b int    // point indexes
}

// opMix draws the seeded, Zipf-skewed operation stream of one client.
// The rank-to-point permutation is the same for every seed, so the hot
// set's make-up (and with it the cache's work) does not vary by seed;
// the seed picks the draws.
type opMix struct {
	kinds *deck
	zipfs map[string]*mrand.Zipf
	perm  []int
	z     int
}

var histKinds = []struct {
	kind   string
	weight int
}{
	{"sensor-ts", 30}, {"sensor-asof", 15}, {"payroll-ts", 15}, {"payroll-rollback", 10},
	{"sensor-agg", 20}, {"payroll-agg", 10},
}

func newOpMix(seed int64, client int, z int) *opMix {
	rng := mrand.New(mrand.NewSource(seed*104729 + int64(client)))
	m := &opMix{zipfs: map[string]*mrand.Zipf{}, z: z,
		perm: mrand.New(mrand.NewSource(0x9e37)).Perm(z)}
	var kinds []string
	var weights []int
	for _, k := range histKinds {
		m.zipfs[k.kind] = mrand.NewZipf(rng, zipfS, 1, uint64(z-1))
		kinds, weights = append(kinds, k.kind), append(weights, k.weight)
	}
	m.kinds = newDeck(rng, kinds, weights)
	return m
}

func (m *opMix) next() histOp {
	kind := m.kinds.deal()
	p := m.perm[m.zipfs[kind].Uint64()]
	return histOp{kind: kind, a: p, b: m.perm[(p*31+7)%m.z]}
}

// query is an operation's concrete parameters against a built history.
type query struct {
	rel    string
	class  string // read or agg
	qkind  string // timeslice, asof, rollback
	vt, tt int64
	sql    string
	lo, hi int64
	width  int64
}

func (h *history) resolve(op histOp, z int) query {
	sIdx := func(p int) int { return p * len(h.sensor.vt) / z }
	payVT := func(p int) int64 { return payrollVT0 + int64(p)*h.paySpan/int64(z) }
	switch op.kind {
	case "sensor-ts":
		return query{rel: "sensor", class: "read", qkind: "timeslice", vt: h.sensor.vt[sIdx(op.a)]}
	case "sensor-asof":
		return query{rel: "sensor", class: "read", qkind: "asof", vt: h.sensor.vt[sIdx(op.a)], tt: h.sensor.tt[sIdx(op.b)]}
	case "payroll-ts":
		return query{rel: "payroll", class: "read", qkind: "timeslice", vt: payVT(op.a)}
	case "payroll-rollback":
		return query{rel: "payroll", class: "read", qkind: "rollback", tt: h.payroll.vs[op.a*h.earlyVersions/z].ttS}
	case "sensor-agg":
		lo := h.sensor.vt[sIdx(op.a)]
		return query{rel: "sensor", class: "agg", lo: lo, hi: lo + sensorAggSpan, width: sensorAggW,
			sql: fmt.Sprintf("SELECT COUNT(*), SUM(v) FROM sensor WHEN VALID DURING [%d, %d) GROUP BY WINDOW(%d)", lo, lo+sensorAggSpan, sensorAggW)}
	default: // payroll-agg
		lo := payVT(op.a)
		return query{rel: "payroll", class: "agg", lo: lo, hi: lo + payAggSpan, width: payPeriod,
			sql: fmt.Sprintf("SELECT COUNT(*), SUM(salary) FROM payroll WHEN VALID DURING [%d, %d) GROUP BY WINDOW(%d)", lo, lo+payAggSpan, payPeriod)}
	}
}

// canon is an answer element reduced to what the oracle predicts.
type canon struct {
	es, ttS, ttE, lo, hi, v int64
}

func sortCanon(cs []canon) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].es < cs[j].es })
}

func fromWire(els []client.Element) ([]canon, error) {
	out := make([]canon, len(els))
	for i, el := range els {
		ts, err := el.VT.ToTimestamp()
		if err != nil {
			return nil, err
		}
		lo, hi := extent(ts)
		if len(el.Varying) != 1 {
			return nil, fmt.Errorf("element %d has %d varying values", el.ES, len(el.Varying))
		}
		out[i] = canon{int64(el.ES), el.TTStart, el.TTEnd, lo, hi, el.Varying[0].Int}
	}
	sortCanon(out)
	return out, nil
}

func extent(ts element.Timestamp) (int64, int64) {
	if c, ok := ts.Event(); ok {
		return int64(c), int64(c) + 1
	}
	return int64(ts.Start()), int64(ts.End())
}

// expectRead evaluates a read by definition over the backlog: rollback
// keeps versions with tt⊢ ≤ tt < tt⊣, time-slice keeps current versions
// valid at vt, and as-of keeps versions present at tt valid at vt.
func (h *history) expectRead(q query) []canon {
	var out []canon
	keep := func(es surrogate.Surrogate, ttS, ttE, lo, hi, v int64) {
		present := ttE == int64(chronon.Forever)
		switch q.qkind {
		case "rollback":
			present = ttS <= q.tt && q.tt < ttE
		case "asof":
			present = ttS <= q.tt && q.tt < ttE && lo <= q.vt && q.vt < hi
		case "timeslice":
			present = present && lo <= q.vt && q.vt < hi
		}
		if present {
			out = append(out, canon{int64(es), ttS, ttE, lo, hi, v})
		}
	}
	if q.rel == "sensor" {
		// vt is strictly increasing, so only the element at vt can match.
		i := sort.Search(len(h.sensor.vt), func(i int) bool { return h.sensor.vt[i] >= q.vt })
		if i < len(h.sensor.vt) && h.sensor.vt[i] == q.vt {
			keep(h.sensor.es[i], h.sensor.tt[i], int64(chronon.Forever), q.vt, q.vt+1, h.sensor.v[i])
		}
	} else {
		for _, v := range h.payroll.vs {
			keep(v.es, v.ttS, v.ttE, v.lo, v.hi, v.salary)
		}
	}
	sortCanon(out)
	return out
}

// expectAgg evaluates COUNT(*) and SUM over the current snapshot per
// tumbling window, by snapshot reducibility: each window's row is the
// non-temporal aggregate over the versions whose (clamped) valid extent
// overlaps it; empty windows are not emitted.
func (h *history) expectAgg(q query) [][4]int64 {
	type cell struct{ n, sum int64 }
	cells := map[int64]*cell{}
	add := func(lo, hi, v int64) {
		lo, hi = max(lo, q.lo), min(hi, q.hi)
		if lo >= hi {
			return
		}
		for w := floorDiv(lo, q.width); w <= floorDiv(hi-1, q.width); w++ {
			c := cells[w]
			if c == nil {
				c = &cell{}
				cells[w] = c
			}
			c.n++
			c.sum += v
		}
	}
	if q.rel == "sensor" {
		i := sort.Search(len(h.sensor.vt), func(i int) bool { return h.sensor.vt[i] >= q.lo })
		for ; i < len(h.sensor.vt) && h.sensor.vt[i] < q.hi; i++ {
			add(h.sensor.vt[i], h.sensor.vt[i]+1, h.sensor.v[i])
		}
	} else {
		for _, v := range h.payroll.vs {
			if v.ttE == int64(chronon.Forever) {
				add(v.lo, v.hi, v.salary)
			}
		}
	}
	var out [][4]int64
	for w, c := range cells {
		out = append(out, [4]int64{w * q.width, (w + 1) * q.width, c.n, c.sum})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// floorDiv divides rounding toward minus infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func aggRows(res client.SelectResponse) ([][4]int64, error) {
	out := make([][4]int64, len(res.Rows))
	for i, row := range res.Rows {
		if len(row) != 4 {
			return nil, fmt.Errorf("row %d has %d columns", i, len(row))
		}
		out[i] = [4]int64{row[0].Time, row[1].Time, row[2].Int, row[3].Int}
	}
	return out, nil
}

// checkRead compares one answer with the oracle; "" means it matches.
func (h *history) checkRead(q query, got []client.Element) string {
	cs, err := fromWire(got)
	if err != nil {
		return err.Error()
	}
	d := digestCanon(cs)
	if h.known(q, d) {
		return ""
	}
	want := h.expectRead(q)
	if len(cs) != len(want) {
		return fmt.Sprintf("%d elements, want %d", len(cs), len(want))
	}
	for i := range cs {
		if cs[i] != want[i] {
			return fmt.Sprintf("element %+v, want %+v", cs[i], want[i])
		}
	}
	h.remember(q, d)
	return ""
}

// checkAgg compares one aggregate answer with the oracle.
func (h *history) checkAgg(q query, res client.SelectResponse) string {
	got, err := aggRows(res)
	if err != nil {
		return err.Error()
	}
	d := digestRows(got)
	if h.known(q, d) {
		return ""
	}
	want := h.expectAgg(q)
	if len(got) != len(want) {
		return fmt.Sprintf("%d windows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("window %v, want %v", got[i], want[i])
		}
	}
	h.remember(q, d)
	return ""
}

func historyRound(ctx context.Context, cfg config, idx int, d time.Duration, p *probe) (*roundResult, error) {
	r := &roundResult{lat: latencies{}, extra: map[string]float64{}}
	dir := filepath.Join(cfg.dir, fmt.Sprintf("history-%d", idx))
	defer os.RemoveAll(dir)

	setupStart := time.Now()
	prim, err := bootPrimary(dir, p)
	if err != nil {
		return nil, err
	}
	defer prim.close()
	cli := clientFor(prim, p, nil)
	h, err := setupHistory(ctx, cli, prim.cat, cfg)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(setupStart)

	// Warm-up: the same loop, untimed, so the cache holds the hot set.
	if warm := runHistoryLoop(ctx, cfg, h, cli, time.Duration(float64(d)*warmupShare), nil, 1); warm.failed != 0 {
		r.attempted, r.failed, r.problems = warm.attempted, warm.failed, warm.problems
	}
	if p != nil {
		if err := p.begin(ctx, prim, cli); err != nil {
			return nil, err
		}
	}
	mw, err := cli.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := runHistoryLoop(ctx, cfg, h, cli, d, p, 0)
	r.elapsed, r.ops, r.lat = out.elapsed, out.ops, out.lat
	r.attempted += out.attempted
	r.failed += out.failed
	r.problems = append(r.problems, out.problems...)
	if p != nil {
		if err := p.end(ctx, prim, cli, r.ops, 0); err != nil {
			return nil, err
		}
		p.log = out.log
	}
	m1, err := cli.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	if mw.QueryCache != nil && m1.QueryCache != nil {
		hits := float64(m1.QueryCache.Hits - mw.QueryCache.Hits)
		misses := float64(m1.QueryCache.Misses - mw.QueryCache.Misses)
		r.extra["qcache_hit_ratio"] = ratio(hits, hits+misses)
	}
	r.heapMB = heapInuseMB()
	held, err := versionsHeld(prim.cat)
	if err != nil {
		return nil, err
	}
	if err := prim.close(); err != nil {
		return nil, err
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	r.diskPerVersion = ratio(float64(bytes), float64(held))
	return r, nil
}

// setupHistory creates, declares, loads and advises both relations.
func setupHistory(ctx context.Context, cli *client.Client, cat *catalog.Catalog, cfg config) (*history, error) {
	if _, err := cli.Create(ctx, sensorSchema()); err != nil {
		return nil, err
	}
	d, err := sensorDescriptor()
	if err != nil {
		return nil, err
	}
	if _, err := cli.Declare(ctx, "sensor", wire.FromDescriptor(d)); err != nil {
		return nil, err
	}
	if _, err := cli.Create(ctx, payrollSchema()); err != nil {
		return nil, err
	}
	h, err := buildHistory(cfg.seed, cfg.size, httpHistory{ctx, cli})
	if err != nil {
		return nil, err
	}
	if _, err := cat.AdvisePass(catalog.DefaultAdvisorConfig()); err != nil {
		return nil, fmt.Errorf("advisor pass: %w", err)
	}
	return h, nil
}

type loopOut struct {
	elapsed           time.Duration
	ops               int64
	lat               latencies
	attempted, failed int64
	problems          []string
	log               []histOp
}

// runHistoryLoop runs the closed loop of every client for d;
// stream offsets the seeded streams (the warm-up uses its own).
func runHistoryLoop(ctx context.Context, cfg config, h *history, cli *client.Client, d time.Duration, p *probe, stream int) *loopOut {
	z := cfg.size.ZipfPoints
	out := &loopOut{lat: latencies{}}
	var mu sync.Mutex
	var seq atomic.Int64
	type logged struct {
		seq int64
		op  histOp
	}
	var all []logged
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mix := newOpMix(cfg.seed, c+clients*stream, z)
			lat := latencies{}
			var ops, attempted, failed int64
			var problems []string
			var log []logged
			bad := func(format string, args ...any) {
				failed++
				if len(problems) < 10 {
					problems = append(problems, fmt.Sprintf(format, args...))
				}
			}
			for time.Now().Before(deadline) {
				op := mix.next()
				q := h.resolve(op, z)
				octx, id := p.opCtx(ctx)
				attempted++
				t0 := time.Now()
				var qr client.QueryResponse
				var sr client.SelectResponse
				var err error
				switch q.qkind {
				case "timeslice":
					qr, err = cli.Timeslice(octx, q.rel, q.vt)
				case "asof":
					qr, err = cli.TimesliceAsOf(octx, q.rel, q.vt, q.tt)
				case "rollback":
					qr, err = cli.Rollback(octx, q.rel, q.tt)
				default:
					sr, err = cli.Select(octx, q.sql)
				}
				dur := time.Since(t0)
				p.clientSpan(id, q.class, t0, dur)
				if err != nil {
					bad("%s: %v", op.kind, err)
					continue
				}
				var msg string
				if q.class == "agg" {
					p.book("agg", sr.Touched, len(sr.Rows))
					msg = h.checkAgg(q, sr)
				} else {
					p.book("read", qr.Touched, len(qr.Elements))
					msg = h.checkRead(q, qr.Elements)
				}
				if msg != "" {
					bad("%s %+v: %s", op.kind, q, msg)
					continue
				}
				lat.add(q.class+"/"+op.kind, dur)
				ops++
				if p != nil {
					log = append(log, logged{seq.Add(1), op})
				}
			}
			mu.Lock()
			out.lat.merge(lat)
			out.ops += ops
			out.attempted += attempted
			out.failed += failed
			out.problems = append(out.problems, problems...)
			all = append(all, log...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, l := range all {
		out.log = append(out.log, l.op)
	}
	return out
}

// historyLadder builds the same history in an unserved catalog and
// replays the traced phase's queries against the entry methods, with the
// parse and plan steps of aggregates timed on their own.
func historyLadder(ctx context.Context, cfg config, p *probe) error {
	dir := filepath.Join(cfg.dir, "ladder")
	defer os.RemoveAll(dir)
	ln, err := openPrimaryCatalog(dir, nil)
	if err != nil {
		return err
	}
	defer ln.close()
	for _, s := range []client.Schema{sensorSchema(), payrollSchema()} {
		rs, err := s.ToSchema()
		if err != nil {
			return err
		}
		if _, err := ln.cat.Create(rs); err != nil {
			return err
		}
	}
	d, err := sensorDescriptor()
	if err != nil {
		return err
	}
	sensor, err := ln.cat.Get("sensor")
	if err != nil {
		return err
	}
	if err := sensor.Declare([]constraint.Descriptor{d}); err != nil {
		return err
	}
	h, err := buildHistory(cfg.seed, cfg.size, catalogHistory{ctx, ln.cat})
	if err != nil {
		return err
	}
	if _, err := ln.cat.AdvisePass(catalog.DefaultAdvisorConfig()); err != nil {
		return err
	}
	log, _ := p.log.([]histOp)
	if len(log) > cfg.size.LadderMaxOps {
		log = log[:cfg.size.LadderMaxOps]
	}
	for _, op := range log {
		q := h.resolve(op, cfg.size.ZipfPoints)
		e, err := ln.cat.Get(q.rel)
		if err != nil {
			return err
		}
		if q.class == "agg" {
			var tq *tsql.Query
			p.tr.timed(p.tr.newID(), "tsql.parse", "server.agg", func() { tq, err = tsql.Parse(q.sql) })
			if err != nil {
				return err
			}
			p.tr.timed(p.tr.newID(), "plan.build", "server.agg", func() { e.PlanFor(tsql.PlanQuery(tq)) })
			if err := p.ladderCall("agg", func() error {
				_, _, _, err := e.SelectCtx(ctx, tq)
				return err
			}); err != nil {
				return err
			}
			continue
		}
		if err := p.ladderCall(q.qkind, func() error {
			var err error
			switch q.qkind {
			case "timeslice":
				_, err = e.TimesliceCtx(ctx, chronon.Chronon(q.vt))
			case "asof":
				_, err = e.TimesliceAsOfCtx(ctx, chronon.Chronon(q.vt), chronon.Chronon(q.tt))
			case "rollback":
				_, err = e.RollbackCtx(ctx, chronon.Chronon(q.tt))
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
