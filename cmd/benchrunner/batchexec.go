package main

// S7 — batch execution: the columnar window-aggregate engine measured
// against the row reference engine on a frozen vt-ordered relation. The
// workload is the archival shape the batch representation targets: a full
// history is loaded in valid-time order, the early 90% is closed by
// retention deletes, and one advisor pass migrates the relation to the
// vt-ordered log and seals it into packed runs. Aggregates then run twice
// per probe — USING ROW and USING COLUMNAR — and must answer identically;
// the columnar engine's run envelopes let it skip fully-closed and
// out-of-asof runs that the row engine must visit element by element.
// Results go to BENCH_batchexec.json; the gated probes must show the
// columnar engine at ≥5x the row engine's throughput.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tsql"
	"repro/internal/tx"
)

// batchRow is one probe's row in BENCH_batchexec.json.
type batchRow struct {
	Probe         string  `json:"probe"`
	Query         string  `json:"query"`
	RowP50US      float64 `json:"row_p50_us"`
	ColP50US      float64 `json:"columnar_p50_us"`
	RowTouched    int     `json:"row_touched"`
	ColTouched    int     `json:"columnar_touched"`
	RowRowsPerSec float64 `json:"row_rows_per_sec"`
	ColRowsPerSec float64 `json:"columnar_rows_per_sec"`
	Speedup       float64 `json:"speedup"`
	Windows       int     `json:"windows"`
	Divergence    int     `json:"divergence"` // iterations whose answers differed; must be 0
	Gated         bool    `json:"gated"`      // probe counts against the ≥5x requirement
}

// batchexecResult is the BENCH_batchexec.json document.
type batchexecResult struct {
	Experiment     string     `json:"experiment"`
	Elements       int        `json:"elements"`
	LiveElements   int        `json:"live_elements"`
	SealedElements int        `json:"sealed_elements"`
	Org            string     `json:"org"`
	Rows           []batchRow `json:"rows"`
}

// runS7 measures row vs columnar window aggregation on a frozen relation.
func runS7(n int) error {
	// The gate needs the scan asymmetry to dominate per-query constants:
	// a deep history with a thin live tail. Loading is quadratic in n
	// (every mutation republishes an O(n) snapshot view), so the range is
	// pinned regardless of -n.
	if n < 40000 {
		n = 40000
	}
	if n > 80000 {
		n = 80000
	}
	dir, err := os.MkdirTemp("", "tsdbd-batchexec-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cat := catalog.New(catalog.Config{
		Dir:      dir,
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
	})
	e, err := cat.Create(relation.Schema{
		Name: "frozen", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Varying: []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		return err
	}
	// Sequential history: vt tracks arrival, the shape the vt-ordered log
	// is inferred from.
	esList := make([]*element.Element, 0, n)
	for i := 1; i <= n; i++ {
		el, err := e.InsertKeyed(context.Background(), relation.Insertion{
			VT:      element.EventAt(chronon.Chronon(10 * i)),
			Varying: []element.Value{element.Int(int64(i % 1000))},
		}, "")
		if err != nil {
			return err
		}
		esList = append(esList, el)
	}
	// Freeze: retention closes the early 99%, then one advisor pass
	// migrates to the inferred vt-ordered log and seals the history into
	// packed runs. Runs whose every element is closed prune under
	// current-state; run tt-envelopes prune under AS OF.
	live := n / 100
	for _, el := range esList[:n-live] {
		if err := e.DeleteKeyed(context.Background(), el.ES, ""); err != nil {
			return err
		}
	}
	if _, err := cat.AdvisePass(catalog.AdvisorConfig{}); err != nil {
		return err
	}
	phys := e.Physical()
	if phys.Org != storage.VTOrdered {
		return fmt.Errorf("frozen relation organized as %v, want %v", phys.Org, storage.VTOrdered)
	}
	if phys.Compaction.Sealed == 0 {
		return fmt.Errorf("advisor pass sealed nothing")
	}

	asofEarly := 10 * (n / 100) // 1% into the insert history
	clampLo, clampHi := 10*(n/2), 10*(n/2)+10*(n/8)
	probes := []struct {
		name  string
		base  string
		gated bool
	}{
		// Current state over the frozen history: the row engine visits all
		// n versions; the columnar engine skips every fully-closed run and
		// counts the live tail without dereferencing an element.
		{"current", "select count(*) from frozen group by window(2500)", true},
		// Historical AS OF near the start: run tt-envelopes prune the 99%
		// of the history that did not exist yet.
		{"asof-early", fmt.Sprintf("select count(*) from frozen as of %d group by window(2500)", asofEarly), true},
		// Rolling windows exercise the merge-heavy emitter on both sides.
		{"rolling", "select count(*) from frozen group by window(2500, rolling 3)", true},
		// Value aggregates gather from elements on both sides, so the gap
		// is pruning only; equality is the assertion, not the gate.
		{"sum-live", "select count(*), sum(v) from frozen group by window(2500)", false},
		// Valid-time clamp: both engines have a fast path (binary search vs
		// vt zone maps), so this probe checks equality, not the gate.
		{"vt-clamp", fmt.Sprintf("select sum(v) from frozen when valid during [%d, %d) group by window(500)", clampLo, clampHi), false},
	}

	const iters = 50
	ctx := context.Background()
	result := batchexecResult{
		Experiment:     "S7",
		Elements:       n,
		LiveElements:   live,
		SealedElements: phys.Compaction.Sealed,
		Org:            phys.Org.String(),
	}
	fmt.Printf("%-12s %10s %10s %12s %12s %9s %8s\n",
		"probe", "row p50", "col p50", "row touched", "col touched", "speedup", "windows")
	for _, p := range probes {
		qRow, err := tsql.Parse(p.base + " using row")
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		qCol, err := tsql.Parse(p.base + " using columnar")
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		var rowDurs, colDurs []time.Duration
		rowTouched, colTouched, windows, divergence := 0, 0, 0, 0
		for it := 0; it < iters+2; it++ {
			start := time.Now()
			rRes, _, rT, err := e.SelectCtx(ctx, qRow)
			rowDur := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s row: %w", p.name, err)
			}
			start = time.Now()
			cRes, _, cT, err := e.SelectCtx(ctx, qCol)
			colDur := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s columnar: %w", p.name, err)
			}
			if !reflect.DeepEqual(rRes, cRes) {
				divergence++
			}
			if it < 2 {
				continue // warmup
			}
			rowDurs = append(rowDurs, rowDur)
			colDurs = append(colDurs, colDur)
			rowTouched, colTouched, windows = rT, cT, len(rRes.Rows)
		}
		row := batchRow{
			Probe: p.name, Query: p.base,
			RowP50US: quantileUS(rowDurs, 0.50), ColP50US: quantileUS(colDurs, 0.50),
			RowTouched: rowTouched, ColTouched: colTouched,
			Windows: windows, Divergence: divergence, Gated: p.gated,
		}
		if row.RowP50US > 0 {
			row.RowRowsPerSec = float64(rowTouched) / (row.RowP50US / 1e6)
		}
		if row.ColP50US > 0 {
			// Throughput over the same logical input: the columnar engine
			// answers for all rowTouched candidate versions, it just never
			// materializes the pruned ones.
			row.ColRowsPerSec = float64(rowTouched) / (row.ColP50US / 1e6)
			row.Speedup = row.RowP50US / row.ColP50US
		}
		result.Rows = append(result.Rows, row)
		fmt.Printf("%-12s %9.1fµ %9.1fµ %12d %12d %8.1fx %8d\n",
			p.name, row.RowP50US, row.ColP50US, rowTouched, colTouched, row.Speedup, windows)

		if divergence != 0 {
			return fmt.Errorf("%s: %d iterations diverged between engines", p.name, divergence)
		}
		if p.gated && row.Speedup < 5 {
			return fmt.Errorf("%s: columnar speedup %.1fx on the frozen relation, want >= 5x", p.name, row.Speedup)
		}
	}

	doc, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_batchexec.json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_batchexec.json")
	return nil
}
