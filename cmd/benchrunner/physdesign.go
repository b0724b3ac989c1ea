package main

// S6 — automatic physical design: the closed specialization loop measured
// end to end. Three undeclared workloads — degenerate (vt = tt),
// sequential (vt trails tt but stays ordered), and general (random valid
// times) — are loaded into heap/tt-log organizations, probed, then handed
// to one advisor pass (exactly what tsdbd -auto-specialize runs per
// tick). The degenerate and sequential relations must migrate to the
// inferred vt-ordered log and answer valid-time queries by binary search
// instead of scanning; the general relation is the control and must not
// migrate. Every probe is replayed after the migration and compared
// element by element: the loop may change plans, never answers. Results
// go to BENCH_physdesign.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tx"
)

// physProbe is one side (before or after migration) of a workload's
// measurement: per-query latency quantiles and the cost-model's touched
// counts for the paper's two query kinds.
type physProbe struct {
	TimesliceP50US   float64 `json:"timeslice_p50_us"`
	TimesliceP99US   float64 `json:"timeslice_p99_us"`
	RollbackP50US    float64 `json:"rollback_p50_us"`
	RollbackP99US    float64 `json:"rollback_p99_us"`
	TimesliceTouched float64 `json:"timeslice_touched_avg"`
	RollbackTouched  float64 `json:"rollback_touched_avg"`
	StoreBytes       int64   `json:"store_bytes"`
	Org              string  `json:"org"`
}

// physRow is one workload's row in BENCH_physdesign.json.
type physRow struct {
	Workload         string    `json:"workload"`
	Elements         int       `json:"elements"`
	Migrated         bool      `json:"migrated"`
	Source           string    `json:"source,omitempty"`
	InferredClasses  []string  `json:"inferred_classes,omitempty"`
	Before           physProbe `json:"before"`
	After            physProbe `json:"after"`
	SealedElements   int       `json:"sealed_elements"`
	PackedBytes      int64     `json:"packed_bytes"`
	TouchedReduction float64   `json:"timeslice_touched_reduction"`
	LatencySpeedup   float64   `json:"timeslice_p50_speedup"`
	Divergence       int       `json:"result_divergence"` // probes whose answers changed; must be 0
}

// physdesignResult is the BENCH_physdesign.json document.
type physdesignResult struct {
	Experiment string    `json:"experiment"`
	Elements   int       `json:"elements"`
	Rows       []physRow `json:"rows"`
}

// physWorkload loads one undeclared relation: vt(i) decides the class the
// tracker will observe. The logical clock stamps tt = 10, 20, 30, ...
func physWorkload(name string, n int, vt func(i int) chronon.Chronon) (*catalog.Catalog, *catalog.Entry, func(), error) {
	dir, err := os.MkdirTemp("", "tsdbd-physdesign-")
	if err != nil {
		return nil, nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	cat := catalog.New(catalog.Config{
		Dir:      dir,
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
	})
	e, err := cat.Create(relation.Schema{
		Name: name, ValidTime: element.EventStamp, Granularity: chronon.Second,
	})
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	for i := 1; i <= n; i++ {
		if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(vt(i))}, ""); err != nil {
			cleanup()
			return nil, nil, nil, err
		}
	}
	return cat, e, cleanup, nil
}

// elementsKey canonicalizes a result's elements for divergence checks.
func elementsKey(res catalog.QueryResult) string {
	keys := make([]string, len(res.Elements))
	for i, el := range res.Elements {
		keys[i] = fmt.Sprintf("%v|%v|%v|%v", el.ES, el.VT, el.TTStart, el.TTEnd)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "\n"
	}
	return out
}

func quantileUS(durs []time.Duration, q float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1e3
}

// probeEntry runs the probe set against the entry and records latencies,
// touched counts, and the canonical answers for the divergence check.
func probeEntry(e *catalog.Entry, probes []chronon.Chronon) (physProbe, []string, error) {
	ctx := context.Background()
	var p physProbe
	var tsDurs, rbDurs []time.Duration
	var tsTouched, rbTouched int
	answers := make([]string, 0, 2*len(probes))
	for _, vt := range probes {
		start := time.Now()
		res, err := e.TimesliceCtx(ctx, vt)
		if err != nil {
			return p, nil, fmt.Errorf("timeslice: %w", err)
		}
		tsDurs = append(tsDurs, time.Since(start))
		tsTouched += res.Touched
		answers = append(answers, elementsKey(res))

		start = time.Now()
		res, err = e.RollbackCtx(ctx, vt)
		if err != nil {
			return p, nil, fmt.Errorf("rollback: %w", err)
		}
		rbDurs = append(rbDurs, time.Since(start))
		rbTouched += res.Touched
		answers = append(answers, elementsKey(res))
	}
	phys := e.Physical()
	p.TimesliceP50US = quantileUS(tsDurs, 0.50)
	p.TimesliceP99US = quantileUS(tsDurs, 0.99)
	p.RollbackP50US = quantileUS(rbDurs, 0.50)
	p.RollbackP99US = quantileUS(rbDurs, 0.99)
	p.TimesliceTouched = float64(tsTouched) / float64(len(probes))
	p.RollbackTouched = float64(rbTouched) / float64(len(probes))
	p.StoreBytes = phys.StoreBytes
	p.Org = phys.Org.String()
	return p, answers, nil
}

// runS6 measures each workload before and after one advisor pass.
func runS6(n int) error {
	if n > 8000 {
		// Three full workload loads at the default size would dominate the
		// whole suite's runtime (every insert republishes an O(n) snapshot
		// view); 8k elements already separates binary search from scans by
		// three orders of magnitude in elements touched.
		n = 8000
	}
	const probeCount = 512
	rng := rand.New(rand.NewSource(6))
	workloads := []struct {
		name        string
		vt          func(i int) chronon.Chronon
		wantMigrate bool
	}{
		// vt = tt: the degenerate class — one shared order serves both
		// query kinds (§3.1's limit case).
		{"degenerate", func(i int) chronon.Chronon { return chronon.Chronon(10 * i) }, true},
		// vt trails tt by a bounded lag but stays globally ordered and
		// non-overlapping: globally sequential events (§3.2).
		{"sequential", func(i int) chronon.Chronon { return chronon.Chronon(10*i - 3) }, true},
		// Random valid times: no order to infer; the control must keep
		// its general organization.
		{"general", func(i int) chronon.Chronon { return chronon.Chronon(1 + rng.Intn(10*n)) }, false},
	}

	result := physdesignResult{Experiment: "S6", Elements: n}
	fmt.Printf("%-12s %-16s %-16s %12s %12s %10s %10s %8s\n",
		"workload", "org before", "org after", "ts-touch pre", "ts-touch post", "p50 pre", "p50 post", "sealed")
	for _, w := range workloads {
		cat, e, cleanup, err := physWorkload(w.name, n, w.vt)
		if err != nil {
			return err
		}
		probes := make([]chronon.Chronon, probeCount)
		for i := range probes {
			probes[i] = chronon.Chronon(10 * (1 + rng.Intn(n)))
		}

		before, beforeAnswers, err := probeEntry(e, probes)
		if err != nil {
			cleanup()
			return fmt.Errorf("%s before: %w", w.name, err)
		}
		rep, err := cat.AdvisePass(catalog.AdvisorConfig{}) // zero thresholds: always look
		if err != nil {
			cleanup()
			return fmt.Errorf("%s advise: %w", w.name, err)
		}
		after, afterAnswers, err := probeEntry(e, probes)
		if err != nil {
			cleanup()
			return fmt.Errorf("%s after: %w", w.name, err)
		}
		phys := e.Physical()
		cleanup()

		divergence := 0
		for i := range beforeAnswers {
			if beforeAnswers[i] != afterAnswers[i] {
				divergence++
			}
		}
		row := physRow{
			Workload:       w.name,
			Elements:       n,
			Migrated:       len(rep.Migrations) > 0,
			Source:         phys.Source,
			Before:         before,
			After:          after,
			SealedElements: phys.Compaction.Sealed,
			PackedBytes:    phys.Compaction.PackedBytes,
			Divergence:     divergence,
		}
		for _, cl := range phys.Inferred {
			row.InferredClasses = append(row.InferredClasses, cl.String())
		}
		if after.TimesliceTouched > 0 {
			row.TouchedReduction = before.TimesliceTouched / after.TimesliceTouched
		}
		if after.TimesliceP50US > 0 {
			row.LatencySpeedup = before.TimesliceP50US / after.TimesliceP50US
		}
		result.Rows = append(result.Rows, row)

		fmt.Printf("%-12s %-16s %-16s %12.0f %12.0f %9.1fµ %9.1fµ %8d\n",
			w.name, before.Org, after.Org,
			before.TimesliceTouched, after.TimesliceTouched,
			before.TimesliceP50US, after.TimesliceP50US, phys.Compaction.Sealed)

		if divergence != 0 {
			return fmt.Errorf("%s: %d probes diverged across the migration", w.name, divergence)
		}
		if w.wantMigrate != row.Migrated {
			return fmt.Errorf("%s: migrated=%v, want %v", w.name, row.Migrated, w.wantMigrate)
		}
		if w.wantMigrate {
			if after.Org != storage.VTOrdered.String() {
				return fmt.Errorf("%s: post-migration org %s", w.name, after.Org)
			}
			if after.TimesliceTouched >= before.TimesliceTouched {
				return fmt.Errorf("%s: migration did not reduce elements touched (%.0f -> %.0f)",
					w.name, before.TimesliceTouched, after.TimesliceTouched)
			}
		}
	}

	doc, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_physdesign.json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_physdesign.json")
	return nil
}
