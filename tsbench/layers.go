package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/client"
	"repro/internal/wal"
)

// layerDoc describes one per-layer metric: its unit and direction, and
// the end-to-end figure and workloads it is expected to move.
type layerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves"`
	On     string `json:"on"`
}

// layerDocs is every per-layer metric the traced run reports, on every
// workload (0 where the layer does no work in that workload).
var layerDocs = []layerDoc{
	{"storage.alloc_bytes_per_op.insert", "B", "lower", "write_p50_ms, write_p99_ms, ops_per_s", "corrections"},
	{"storage.alloc_bytes_per_op.delete", "B", "lower", "write_p50_ms, write_p99_ms, ops_per_s", "corrections"},
	{"storage.alloc_bytes_per_op.modify", "B", "lower", "write_p50_ms, write_p99_ms, ops_per_s", "corrections"},
	{"catalog.us.delete", "us", "lower", "write_p50_ms, write_p99_ms, ops_per_s", "corrections"},
	{"catalog.us.modify", "us", "lower", "write_p50_ms, write_p99_ms, ops_per_s", "corrections"},
	{"runtime.gc_cycles_per_1k_ops", "count", "lower", "write_p50_ms, write_p99_ms, ops_per_s", "corrections"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "write_p50_ms, write_p99_ms, ops_per_s", "corrections"},
	{"wal.records_per_fsync", "count", "higher", "write_p50_ms / acked_elems_per_s", "corrections / ingest"},
	{"wal.fsyncs_per_1k_ops", "count", "lower", "write_p50_ms / acked_elems_per_s", "corrections / ingest"},
	{"wal.sync_us_p50", "us", "lower", "write_p50_ms / acked_elems_per_s", "corrections / ingest"},
	{"wal.sync_us_p99", "us", "lower", "write_p50_ms / acked_elems_per_s", "corrections / ingest"},
	{"wal.bytes_per_version", "B", "lower", "write_p50_ms / acked_elems_per_s", "corrections / ingest"},
	{"integrity.leaves_per_1k_versions", "count", "lower", "write_p50_ms / acked_elems_per_s", "corrections / ingest"},
	{"catalog.us.insert", "us", "lower", "write_p50_ms / acked_elems_per_s", "corrections / ingest"},
	{"catalog.us.insert_batch", "us", "lower", "acked_elems_per_s", "ingest"},
	{"server.self_us.batch", "us", "lower", "acked_elems_per_s", "ingest"},
	{"client.self_us.batch", "us", "lower", "acked_elems_per_s", "ingest"},
	{"http.net_us.batch", "us", "lower", "acked_elems_per_s", "ingest"},
	{"client.loader_mean_batch", "count", "higher", "acked_elems_per_s", "ingest"},
	{"repl.apply_us_per_frame", "us", "lower", "replicated_elems_per_s", "ingest"},
	{"repl.frames_per_poll", "count", "higher", "replicated_elems_per_s", "ingest"},
	{"repl.lag_records_p99", "count", "lower", "replicated_elems_per_s", "ingest"},
	{"server.self_us.read", "us", "lower", "read_p50_ms, read_p99_ms", "history-reads"},
	{"http.net_us.read", "us", "lower", "read_p50_ms, read_p99_ms", "history-reads"},
	{"client.self_us.read", "us", "lower", "read_p50_ms, read_p99_ms", "history-reads"},
	{"server.resp_bytes_per_op.read", "B", "lower", "read_p50_ms, read_p99_ms", "history-reads"},
	{"server.admission_wait_us_p99.read", "us", "lower", "read_p50_ms, read_p99_ms", "history-reads"},
	{"server.admission_wait_us_p99.write", "us", "lower", "read_p50_ms, read_p99_ms", "history-reads"},
	{"catalog.us.timeslice", "us", "lower", "read_p50_ms", "corrections, history-reads"},
	{"catalog.us.asof", "us", "lower", "read_p50_ms", "corrections, history-reads"},
	{"catalog.us.rollback", "us", "lower", "read_p50_ms", "corrections, history-reads"},
	{"plan.touched_per_result.read", "ratio", "lower", "read_p50_ms", "corrections, history-reads"},
	{"storage.store_bytes_per_version", "B", "lower", "read_p50_ms", "corrections, history-reads"},
	{"storage.sealed_share", "ratio", "higher", "read_p50_ms", "corrections, history-reads"},
	{"catalog.us.agg", "us", "lower", "agg_p50_ms", "history-reads"},
	{"vec.rows_per_batch", "count", "higher", "agg_p50_ms", "history-reads"},
	{"vec.columnar_share", "ratio", "higher", "agg_p50_ms", "history-reads"},
	{"plan.touched_per_result.agg", "ratio", "lower", "agg_p50_ms", "history-reads"},
	{"plan.build_us", "us", "lower", "agg_p50_ms", "history-reads"},
	{"tsql.parse_us", "us", "lower", "agg_p50_ms", "history-reads"},
	{"qcache.hit_ratio", "ratio", "higher", "read_p50_ms, agg_p50_ms", "history-reads"},
	{"qcache.evictions_per_1k_reads", "count", "lower", "read_p50_ms, agg_p50_ms", "history-reads"},
	{"trace.overhead_share", "ratio", "lower", "ops_per_s", "all"},
}

func layerUnit(name string) string {
	for _, d := range layerDocs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// probe gathers one traced phase's measurements: spans, the timing WAL
// file system, /metrics and runtime snapshots around the phase, and the
// counts the workload books while it runs.
type probe struct {
	tr *tracer
	fs *timedFS

	mu      sync.Mutex
	touched map[string]float64 // per class: elements the plan touched
	rows    map[string]float64 // per class: result rows returned
	layers  map[string]float64 // workload-specific layer figures

	// ladderAlloc holds heap bytes allocated per direct catalog call, by
	// operation kind.
	ladderAlloc map[string][]float64

	before, after phaseSnapshot
	ops           int64 // operations completed in the traced phase
	versions      int64 // element versions the traced phase created
	storeBytes    float64
	sealed        float64
	heldVersions  float64

	// ops recorded for the ladder, workload-specific.
	log any
}

type phaseSnapshot struct {
	metrics  client.MetricsResponse
	mem      runtime.MemStats
	wal      wal.Stats
	walBytes int64 // written through the timing file system
}

func newProbe() *probe {
	tr := newTracer()
	return &probe{
		tr: tr, touched: map[string]float64{}, rows: map[string]float64{},
		layers: map[string]float64{}, ladderAlloc: map[string][]float64{},
	}
}

// book records one answer's plan work for the touched-per-result ratio.
func (p *probe) book(class string, touched, rows int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.touched[class] += float64(touched)
	p.rows[class] += float64(rows)
	p.mu.Unlock()
}

// opCtx gives one client operation a span id carried in its context; a
// nil probe leaves ctx untouched.
func (p *probe) opCtx(ctx context.Context) (context.Context, uint64) {
	if p == nil {
		return ctx, 0
	}
	id := p.tr.newID()
	return withOp(ctx, id), id
}

// clientSpan records the client-side span of one operation.
func (p *probe) clientSpan(id uint64, class string, start time.Time, d time.Duration) {
	if p != nil {
		p.tr.record(span{ID: id, Name: "client." + class, Start: p.tr.since(start), End: p.tr.since(start.Add(d))})
	}
}

func (p *probe) set(name string, v float64) {
	p.mu.Lock()
	p.layers[name] = v
	p.mu.Unlock()
}

func (p *probe) snap(ctx context.Context, n *node, cli *client.Client) (phaseSnapshot, error) {
	s := phaseSnapshot{wal: n.wal.Stats(), walBytes: p.fs.bytes.Load()}
	runtime.ReadMemStats(&s.mem)
	m, err := cli.Metrics(ctx)
	s.metrics = m
	return s, err
}

// begin marks the start of the traced phase.
func (p *probe) begin(ctx context.Context, n *node, cli *client.Client) error {
	s, err := p.snap(ctx, n, cli)
	p.before = s
	p.tr.active.Store(true)
	return err
}

// end marks the end of the traced phase; ops and versions are what the
// phase completed and created.
func (p *probe) end(ctx context.Context, n *node, cli *client.Client, ops, versions int64) error {
	p.tr.active.Store(false)
	p.ops, p.versions = ops, versions
	s, err := p.snap(ctx, n, cli)
	p.after = s
	for _, name := range n.cat.Names() {
		e, gerr := n.cat.Get(name)
		if gerr != nil {
			return gerr
		}
		ph := e.Physical()
		p.storeBytes += float64(ph.StoreBytes)
		p.sealed += float64(ph.Compaction.Sealed)
		p.heldVersions += float64(e.Info().Versions)
	}
	return err
}

// allocBytes reads the runtime's cumulative heap allocation counter
// without stopping the world.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// ladderCall times one direct catalog call as a "catalog.<op>" span and
// books the bytes it allocated.
func (p *probe) ladderCall(op string, fn func() error) error {
	a0 := allocBytes()
	var err error
	p.tr.timed(p.tr.newID(), "catalog."+op, "server", func() { err = fn() })
	p.ladderAlloc[op] = append(p.ladderAlloc[op], allocBytes()-a0)
	return err
}

// layerFigures computes every per-layer metric from the probe.
func (p *probe) layerFigures() map[string]float64 {
	out := make(map[string]float64, len(layerDocs))
	for _, d := range layerDocs {
		out[d.Name] = 0
	}
	spans := p.tr.byName()
	medUS := func(name string) float64 { return median(durUS(spanDurs(spans[name]))) }

	// Direct ladder.
	for _, op := range []string{"insert", "delete", "modify", "insert_batch", "timeslice", "asof", "rollback", "agg"} {
		out["catalog.us."+op] = medUS("catalog." + op)
	}
	for _, op := range []string{"insert", "delete", "modify"} {
		out["storage.alloc_bytes_per_op."+op] = median(p.ladderAlloc[op])
	}
	out["tsql.parse_us"] = medUS("tsql.parse")
	out["plan.build_us"] = medUS("plan.build")

	// Whole-process runtime deltas over the traced phase.
	ops := float64(p.ops)
	out["runtime.gc_cycles_per_1k_ops"] = 1000 * ratio(float64(p.after.mem.NumGC-p.before.mem.NumGC), ops)
	out["runtime.alloc_bytes_per_op"] = ratio(float64(p.after.mem.TotalAlloc-p.before.mem.TotalAlloc), ops)

	// WAL, through the timing file system and the log's own counters.
	fsyncs := float64(p.after.wal.Fsyncs - p.before.wal.Fsyncs)
	out["wal.records_per_fsync"] = ratio(float64(p.after.wal.SyncedRecords-p.before.wal.SyncedRecords), fsyncs)
	out["wal.fsyncs_per_1k_ops"] = 1000 * ratio(fsyncs, ops)
	syncs := durUS(spanDurs(spans["wal.sync"]))
	out["wal.sync_us_p50"] = quantile(syncs, 0.50)
	out["wal.sync_us_p99"] = quantile(syncs, 0.99)
	out["wal.bytes_per_version"] = ratio(float64(p.after.walBytes-p.before.walBytes), float64(p.versions))

	bm, am := p.before.metrics, p.after.metrics
	if bm.Integrity != nil && am.Integrity != nil {
		out["integrity.leaves_per_1k_versions"] = 1000 * ratio(float64(am.Integrity.Leaves-bm.Integrity.Leaves), float64(p.versions))
	}
	out["server.admission_wait_us_p99.read"] = float64(am.Admission["read"].WaitP99US)
	out["server.admission_wait_us_p99.write"] = float64(am.Admission["write"].WaitP99US)

	// Cache and batch engine.
	if bm.QueryCache != nil && am.QueryCache != nil {
		hits := float64(am.QueryCache.Hits - bm.QueryCache.Hits)
		misses := float64(am.QueryCache.Misses - bm.QueryCache.Misses)
		out["qcache.hit_ratio"] = ratio(hits, hits+misses)
		reads := float64(len(spans["client.read"]) + len(spans["client.agg"]))
		out["qcache.evictions_per_1k_reads"] = 1000 * ratio(float64(am.QueryCache.Evictions-bm.QueryCache.Evictions), reads)
	}
	if bm.Batch != nil && am.Batch != nil {
		out["vec.rows_per_batch"] = ratio(float64(am.Batch.Rows-bm.Batch.Rows), float64(am.Batch.Batches-bm.Batch.Batches))
		col := float64(am.Batch.ColumnarPicks - bm.Batch.ColumnarPicks)
		row := float64(am.Batch.RowPicks - bm.Batch.RowPicks)
		out["vec.columnar_share"] = ratio(col, col+row)
	}
	out["plan.touched_per_result.read"] = ratio(p.touched["read"], p.rows["read"])
	out["plan.touched_per_result.agg"] = ratio(p.touched["agg"], p.rows["agg"])
	out["storage.store_bytes_per_version"] = ratio(p.storeBytes, p.heldVersions)
	out["storage.sealed_share"] = ratio(p.sealed, p.heldVersions)

	// Serving path: per-operation differences of joined spans, then the
	// server's self time as its median minus the ladder's catalog median.
	for _, class := range []string{"read", "batch"} {
		out["client.self_us."+class] = median(selfTimes(spans["client."+class], spans["http."+class]))
		out["http.net_us."+class] = median(selfTimes(spans["http."+class], spans["server."+class]))
	}
	out["server.resp_bytes_per_op.read"] = meanBytes(spans["server.read"])
	readCat := append(append(append([]span{}, spans["catalog.timeslice"]...), spans["catalog.asof"]...), spans["catalog.rollback"]...)
	out["server.self_us.read"] = medUS("server.read") - median(durUS(spanDurs(readCat)))
	out["server.self_us.batch"] = medUS("server.batch") - medUS("catalog.insert_batch")

	for k, v := range p.layers {
		out[k] = v
	}
	return out
}

func spanDurs(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// selfTimes joins parent and child spans on operation id and returns
// each parent's duration minus its child's, in microseconds.
func selfTimes(parents, children []span) []float64 {
	child := make(map[uint64]time.Duration, len(children))
	for _, c := range children {
		child[c.ID] = c.dur()
	}
	var out []float64
	for _, s := range parents {
		if c, ok := child[s.ID]; ok {
			out = append(out, float64((s.dur()-c).Nanoseconds())/1e3)
		}
	}
	return out
}

func meanBytes(ss []span) float64 {
	var total float64
	for _, s := range ss {
		total += float64(s.Bytes)
	}
	return ratio(total, float64(len(ss)))
}
