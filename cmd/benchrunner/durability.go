package main

// S2 — the durability path: acknowledged-writes/sec through the catalog
// under the three durability configurations (snapshot-only, -wal-sync=always,
// -wal-sync=group), plus the boot-time replay rate for a large log. The
// group-commit column is the experiment's point: concurrent committers
// share fsyncs, so group approaches snapshot-only throughput while keeping
// the always policy's crash guarantee. Results go to BENCH_wal.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/tx"
	"repro/internal/wal"
)

// walConfigResult is one durability configuration's row in BENCH_wal.json.
type walConfigResult struct {
	Name          string  `json:"name"`
	AckedWrites   int     `json:"acked_writes"`
	DurationMS    int64   `json:"duration_ms"`
	WritesPerSec  float64 `json:"acked_writes_per_sec"`
	Fsyncs        uint64  `json:"fsyncs"`
	MeanBatch     float64 `json:"mean_batch"`
	MaxBatch      uint64  `json:"max_batch"`
	MeanAckUS     int64   `json:"mean_ack_us"`
	DurableRecord uint64  `json:"durable_lsn"`
}

// durabilityResult is the BENCH_wal.json document.
type durabilityResult struct {
	Experiment       string            `json:"experiment"`
	Writers          int               `json:"writers"`
	WritesPerConfig  int               `json:"writes_per_config"`
	Configs          []walConfigResult `json:"configs"`
	ReplayRecords    int               `json:"replay_records"`
	ReplayMS         int64             `json:"replay_ms"`
	ReplayRecsPerSec float64           `json:"replay_records_per_sec"`
}

func logicalClocks() func() tx.Clock {
	return func() tx.Clock { return tx.NewLogicalClock(0, 10) }
}

// runS2Config measures one durability configuration: writers concurrent
// goroutines, each appending into its own relation, every write
// acknowledged per the configuration's policy.
func runS2Config(name string, writers, perWriter int, policy wal.SyncPolicy, useWAL bool) (walConfigResult, error) {
	out := walConfigResult{Name: name, AckedWrites: writers * perWriter}
	dir, err := os.MkdirTemp("", "tsdb-walbench-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	var w *wal.Log
	if useWAL {
		w, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: policy})
		if err != nil {
			return out, err
		}
		defer w.Close()
	}
	cat := catalog.New(catalog.Config{Dir: filepath.Join(dir, "data"), NewClock: logicalClocks(), WAL: w})
	if err := cat.Open(); err != nil {
		return out, err
	}
	entries := make([]*catalog.Entry, writers)
	for i := range entries {
		e, err := cat.Create(relation.Schema{
			Name:        fmt.Sprintf("stream_%02d", i),
			ValidTime:   element.EventStamp,
			Granularity: 1,
		})
		if err != nil {
			return out, err
		}
		entries[i] = e
	}

	errc := make(chan error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := entries[g]
			for i := 0; i < perWriter; i++ {
				if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(i))}, ""); err != nil {
					errc <- fmt.Errorf("writer %d insert %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return out, err
	}
	elapsed := time.Since(start)

	out.DurationMS = elapsed.Milliseconds()
	out.WritesPerSec = float64(out.AckedWrites) / elapsed.Seconds()
	out.MeanAckUS = int64(elapsed) / int64(out.AckedWrites) / 1000 * int64(writers)
	if w != nil {
		st := w.Stats()
		out.Fsyncs = st.Fsyncs
		out.MeanBatch = st.MeanBatch()
		out.MaxBatch = st.MaxBatch
		out.DurableRecord = st.DurableLSN
		// Every acknowledged write (plus each create) must be durable.
		if want := uint64(out.AckedWrites + writers); st.DurableLSN < want {
			return out, fmt.Errorf("%s: durable lsn %d < %d acked records", name, st.DurableLSN, want)
		}
	}
	if err := cat.Close(); err != nil {
		return out, err
	}
	return out, nil
}

// runS2 runs the three durability configurations and the replay benchmark,
// prints the table, and writes BENCH_wal.json.
func runS2(n int) error {
	const writers = 8
	perWriter := n / writers
	// The always column fsyncs once per write; keep it seconds-scale.
	if perWriter > 500 {
		perWriter = 500
	}
	if perWriter < 10 {
		perWriter = 10
	}
	total := writers * perWriter

	res := durabilityResult{Experiment: "S2", Writers: writers, WritesPerConfig: total}
	configs := []struct {
		name   string
		policy wal.SyncPolicy
		useWAL bool
	}{
		{"snapshot-only (no wal)", wal.SyncGroup, false},
		{"wal-sync=always", wal.SyncAlways, true},
		{"wal-sync=group", wal.SyncGroup, true},
	}
	fmt.Printf("%d writers × %d acked writes per configuration\n", writers, perWriter)
	fmt.Printf("%-24s %12s %10s %12s %10s\n", "configuration", "writes/s", "fsyncs", "mean batch", "total")
	for _, cfg := range configs {
		row, err := runS2Config(cfg.name, writers, perWriter, cfg.policy, cfg.useWAL)
		if err != nil {
			return err
		}
		res.Configs = append(res.Configs, row)
		fmt.Printf("%-24s %12.0f %10d %12.1f %10s\n",
			row.Name, row.WritesPerSec, row.Fsyncs, row.MeanBatch,
			time.Duration(row.DurationMS*int64(time.Millisecond)).Round(time.Millisecond))
	}
	// Group commit must not fsync once per write when writers overlap; the
	// mean batch is the proof (ratio of records to fsyncs).
	group := res.Configs[len(res.Configs)-1]
	always := res.Configs[1]
	if group.Fsyncs >= always.Fsyncs && group.MeanBatch <= 1.0 {
		fmt.Println("note: group commit found no overlapping committers on this machine")
	}

	// Replay: a large log with no snapshot coverage, rebooted cold.
	replayRecords := 100_000
	if n < 20_000 {
		replayRecords = 5 * n
	}
	dir, err := os.MkdirTemp("", "tsdb-walreplay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")
	// Build the log with the interval policy: acks don't wait, so the build
	// is write-bound, and Close flushes the tail.
	w, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncInterval})
	if err != nil {
		return err
	}
	cat := catalog.New(catalog.Config{NewClock: logicalClocks(), WAL: w})
	if err := cat.Open(); err != nil {
		return err
	}
	e, err := cat.Create(relation.Schema{Name: "big", ValidTime: element.EventStamp, Granularity: 1})
	if err != nil {
		return err
	}
	for i := 0; i < replayRecords; i++ {
		if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(i))}, ""); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}

	start := time.Now()
	w2, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		return err
	}
	cat2 := catalog.New(catalog.Config{NewClock: logicalClocks(), WAL: w2})
	if err := cat2.Open(); err != nil {
		return err
	}
	replayDur := time.Since(start)
	defer w2.Close()
	e2, err := cat2.Get("big")
	if err != nil {
		return err
	}
	if got := e2.Info().Versions; got != replayRecords {
		return fmt.Errorf("replay recovered %d records, want %d", got, replayRecords)
	}
	res.ReplayRecords = replayRecords
	res.ReplayMS = replayDur.Milliseconds()
	res.ReplayRecsPerSec = float64(replayRecords) / replayDur.Seconds()
	fmt.Printf("replay: %d records (create + %d inserts) rebooted in %v (%.0f records/s)\n",
		replayRecords, replayRecords-1, replayDur.Round(time.Millisecond), res.ReplayRecsPerSec)

	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_wal.json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_wal.json")
	return nil
}
