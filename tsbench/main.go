// Command tsbench is the repository's end-to-end benchmark. It boots an
// in-process tsdbd primary with tsdbd's default settings, drives it over
// loopback HTTP through the public client package, checks the answers it
// times, and prints one JSON result line. See README.md beside this file.
//
//	go run . --workload history-reads --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds the run's data directories.
	dir string
	// spans is where the traced run writes its spans.
	spans string
	size  sizes
}

// sizes are the generated-input sizes. The benchmark runs fullSizes; the
// tests run tinySizes.
type sizes struct {
	Rounds            int `json:"rounds"`
	IngestEvents      int `json:"ingest_events_per_round"`
	CorrectionsLoad   int `json:"corrections_preload"`
	CorrectionsVT     int `json:"corrections_vt_range"`
	SensorEvents      int `json:"sensor_events"`
	PayrollEmployees  int `json:"payroll_employees"`
	PayrollPeriods    int `json:"payroll_periods"`
	PayrollModifies   int `json:"payroll_modifies"`
	ZipfPoints        int `json:"zipf_points"`
	LadderMaxOps      int `json:"ladder_max_ops"`
	DirectBatchProbes int `json:"direct_batch_probes"`
}

var fullSizes = sizes{
	Rounds:            3,
	IngestEvents:      130_000,
	CorrectionsLoad:   200_000,
	CorrectionsVT:     50_000,
	SensorEvents:      200_000,
	PayrollEmployees:  500,
	PayrollPeriods:    96,
	PayrollModifies:   1_000,
	ZipfPoints:        4096,
	LadderMaxOps:      20_000,
	DirectBatchProbes: 100,
}

var tinySizes = sizes{
	Rounds:            2,
	IngestEvents:      2_000,
	CorrectionsLoad:   2_000,
	CorrectionsVT:     500,
	SensorEvents:      3_000,
	PayrollEmployees:  20,
	PayrollPeriods:    12,
	PayrollModifies:   30,
	ZipfPoints:        64,
	LadderMaxOps:      500,
	DirectBatchProbes: 5,
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_gmean_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"heap_inuse_mb", "MB"},
	{"disk_bytes_per_version", "B"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(2)
	}
	res, rec, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(2)
	}
	printSummary(os.Stdout, res, rec)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "tsbench: %d of %d operations failed their checks\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("tsbench", flag.ContinueOnError)
	var cfg config
	var seconds int
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "parent of the run's fresh data directory (removed at exit)")
	fs.StringVar(&cfg.spans, "spans", "", "span output file for --trace 1 (default .bench_build/tsbench-spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return cfg, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.seconds = float64(seconds)
	cfg.trace = trace == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "tsbench-spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	cfg.size = fullSizes
	return cfg, nil
}

// roundResult is one set-up plus one measured phase.
type roundResult struct {
	setup time.Duration
	// elapsed is the measured phase's wall time; ops completed in it
	// (ingest: acknowledged elements).
	elapsed time.Duration
	ops     int64
	lat     latencies
	// attempted and failed count operations, plus one per final-state
	// check; problems describes each failure.
	attempted, failed int64
	problems          []string
	heapMB            float64
	diskPerVersion    float64
	// extra holds workload-specific end-to-end figures, recorded in the
	// detail line.
	extra map[string]float64
}

func (r *roundResult) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN books n failed operations under one problem description.
func (r *roundResult) failN(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one traffic mix.
type workload struct {
	why string
	// fixedWork marks a workload whose round is a fixed amount of work
	// rather than a duration: rounds repeat until the measured time
	// reaches --seconds.
	fixedWork bool
	// params describes the generated inputs for the detail line.
	params func(sizes) map[string]any
	// round runs one set-up and one measured phase of length d. With p
	// non-nil the phase is traced and p collects layer measurements.
	round func(ctx context.Context, cfg config, idx int, d time.Duration, p *probe) (*roundResult, error)
	// ladder replays the traced phase's operations directly against the
	// catalog's methods, recording catalog.* spans into p.
	ladder func(ctx context.Context, cfg config, p *probe) error
}

var workloads = map[string]workload{
	"ingest":        ingestWorkload,
	"corrections":   correctionsWorkload,
	"history-reads": historyWorkload,
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// record is the detail line printed before the result: environment,
// parameters, and every figure with its sample count.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Env       environment        `json:"env"`
	Params    map[string]any     `json:"params"`
	Rounds    int                `json:"rounds"`
	Samples   map[string]int     `json:"samples"`
	Figures   map[string]float64 `json:"figures"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	LayerMap  []layerDoc         `json:"layer_map,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	SpansFile string             `json:"spans_file,omitempty"`
	SpanCount int                `json:"span_count,omitempty"`
	Why       string             `json:"why"`
}

// run executes the invocation and assembles the result.
func run(ctx context.Context, cfg config) (*result, *record, error) {
	w := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "tsbench-data-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: captureEnv(), Params: w.params(cfg.size), Samples: map[string]int{},
		Figures: map[string]float64{}, Why: w.why,
	}
	rec.Params["sizes"] = cfg.size
	if cfg.trace {
		return runTraced(ctx, cfg, w, rec)
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	per := total / time.Duration(cfg.size.Rounds)
	var rs []*roundResult
	var measured time.Duration
	for i := 0; i < cfg.size.Rounds || (w.fixedWork && measured < total); i++ {
		r, err := w.round(ctx, cfg, i, per, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s round %d: %w", cfg.workload, i, err)
		}
		rs = append(rs, r)
		measured += r.elapsed
	}
	rec.Rounds = len(rs)
	res := summarize(rs, rec)
	return res, rec, nil
}

// summarize folds the rounds into the end-to-end metrics: medians over
// rounds for set-up, throughput, memory and disk; pooled samples for
// latencies, so the tail percentile has enough samples beyond it.
func summarize(rs []*roundResult, rec *record) *result {
	var setups, heaps, disks, rates []float64
	var attempted, failed int64
	lat := latencies{}
	extra := map[string][]float64{}
	for _, r := range rs {
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, r.heapMB)
		disks = append(disks, r.diskPerVersion)
		rates = append(rates, ratio(float64(r.ops), r.elapsed.Seconds()))
		attempted += r.attempted
		failed += r.failed
		lat.merge(r.lat)
		rec.Problems = append(rec.Problems, r.problems...)
		for k, v := range r.extra {
			extra[k] = append(extra[k], v)
		}
	}
	all := durMS(lat.all())
	values := map[string]float64{
		"setup_s":                median(setups),
		"ops_per_s":              median(rates),
		"op_p50_ms":              quantile(all, 0.50),
		"op_p99_ms":              quantile(all, 0.99),
		"op_gmean_ms":            geomean(all),
		"heap_inuse_mb":          median(heaps),
		"disk_bytes_per_version": median(disks),
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	for k, v := range values {
		rec.Figures[k] = v
	}
	rec.Samples["op"] = len(all)
	rec.Samples["setup"] = len(setups)
	perKind := latencies{}
	for key, ds := range lat {
		if _, kind, ok := strings.Cut(key, "/"); ok {
			perKind[kind] = ds
		}
	}
	for _, group := range []latencies{lat.byClass(), perKind} {
		for name, ds := range group {
			ms := durMS(ds)
			rec.Figures[name+"_p50_ms"] = quantile(ms, 0.50)
			rec.Figures[name+"_p99_ms"] = quantile(ms, 0.99)
			rec.Samples[name] = len(ms)
		}
	}
	for k, vs := range extra {
		rec.Figures[k] = median(vs)
	}
	rec.Figures["fail_ratio"] = ratio(float64(failed), float64(attempted))
	return res
}

// heapInuseMB forces a collection and reports the heap in use.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// printSummary writes the human-readable lines: every figure by name and
// unit, then the detail record as one JSON line.
func printSummary(w *os.File, res *result, rec *record) {
	fmt.Fprintf(w, "tsbench %s seed=%d seconds=%g trace=%v go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Env.GoVersion, rec.Env.GOMAXPROCS, rec.Env.NumCPU,
		rec.Env.CPUModel, rec.Env.Commit)
	names := make([]string, 0, len(rec.Figures))
	for k := range rec.Figures {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, rec.Figures[k], unitOf(k))
	}
	layerNames := make([]string, 0, len(rec.Layers))
	for k := range rec.Layers {
		layerNames = append(layerNames, k)
	}
	sort.Strings(layerNames)
	for _, k := range layerNames {
		fmt.Fprintf(w, "  layer %-40s %14.4f %s\n", k, rec.Layers[k], layerUnit(k))
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	if line, err := json.Marshal(map[string]any{"record": rec}); err == nil {
		fmt.Fprintln(w, string(line))
	}
}

// unitOf names the unit of a detail figure.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasPrefix(name, "disk_bytes"):
		return "B"
	}
	return "ratio"
}

// runTraced makes the traced run: one untraced round as the overhead
// baseline, one traced round, then the direct ladder over the traced
// round's operations. Its metrics are the per-layer figures.
func runTraced(ctx context.Context, cfg config, w workload, rec *record) (*result, *record, error) {
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	base, err := w.round(ctx, cfg, 0, half, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s untraced round: %w", cfg.workload, err)
	}
	p := newProbe()
	traced, err := w.round(ctx, cfg, 1, half, p)
	if err != nil {
		return nil, nil, fmt.Errorf("%s traced round: %w", cfg.workload, err)
	}
	p.tr.active.Store(true)
	err = w.ladder(ctx, cfg, p)
	p.tr.active.Store(false)
	if err != nil {
		return nil, nil, fmt.Errorf("%s ladder: %w", cfg.workload, err)
	}
	rec.Rounds = 2
	res := summarize([]*roundResult{base, traced}, rec)
	layers := p.layerFigures()
	baseRate := ratio(float64(base.ops), base.elapsed.Seconds())
	tracedRate := ratio(float64(traced.ops), traced.elapsed.Seconds())
	layers["trace.overhead_share"] = 1 - ratio(tracedRate, baseRate)
	res.Metrics = make(map[string]metric, len(layers))
	for _, d := range layerDocs {
		res.Metrics[d.Name] = metric{layers[d.Name], d.Unit}
	}
	rec.Layers, rec.LayerMap = layers, layerDocs
	rec.SpansFile = cfg.spans
	rec.SpanCount = len(p.tr.spans)
	if err := p.tr.write(cfg.spans); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, rec, nil
}
