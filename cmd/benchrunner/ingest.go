package main

// S9 — firehose ingest: the batched WAL frame against one-element
// inserts, all under the group-commit sync policy a production tsdbd
// runs. Three measurements back the claim:
//
//  1. Sustained acked elements/sec at batch sizes 1, 32, 256 — batch=256
//     must clear 10x the single-insert rate (one frame, one fsync quorum,
//     one epoch publish, one Merkle leaf per 256 elements instead of per
//     element).
//  2. Cold-boot replay rate of a log built entirely from batch frames.
//  3. Follower catch-up on the same batched log: the frame ships as-is,
//     so the replication feed gets the identical amortization.
//
// Results go to BENCH_ingest.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/wal"
)

// ingestConfigResult is one batch-size row of BENCH_ingest.json.
type ingestConfigResult struct {
	Name        string  `json:"name"`
	BatchSize   int     `json:"batch_size"`
	Elements    int     `json:"elements"`
	DurationMS  int64   `json:"duration_ms"`
	ElemsPerSec float64 `json:"elements_per_sec"`
	WALRecords  uint64  `json:"wal_records"`
	Fsyncs      uint64  `json:"fsyncs"`
	Epochs      uint64  `json:"epoch_publishes"`
}

// ingestResult is the BENCH_ingest.json document.
type ingestResult struct {
	Experiment        string               `json:"experiment"`
	Configs           []ingestConfigResult `json:"configs"`
	SpeedupAt256      float64              `json:"speedup_at_256"`
	ReplayElements    int                  `json:"replay_elements"`
	ReplayBatches     int                  `json:"replay_batches"`
	ReplayMS          int64                `json:"replay_ms"`
	ReplayElemsPerSec float64              `json:"replay_elements_per_sec"`
	ShipElements      int                  `json:"follower_elements"`
	ShipMS            int64                `json:"follower_catchup_ms"`
	ShipElemsPerSec   float64              `json:"follower_elements_per_sec"`
}

// runS9Config drives one sequential ingest stream — the shape of a bulk
// loader — at the given batch size and reports the acked rate plus the
// per-element costs the batch amortizes.
func runS9Config(name string, batch, elements int) (ingestConfigResult, error) {
	out := ingestConfigResult{Name: name, BatchSize: batch, Elements: elements}
	dir, err := os.MkdirTemp("", "tsdb-ingestbench-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncGroup})
	if err != nil {
		return out, err
	}
	defer w.Close()
	cat := catalog.New(catalog.Config{Dir: filepath.Join(dir, "data"), NewClock: logicalClocks(), WAL: w})
	if err := cat.Open(); err != nil {
		return out, err
	}
	e, err := cat.Create(relation.Schema{Name: "fire", ValidTime: element.EventStamp, Granularity: 1})
	if err != nil {
		return out, err
	}

	ctx := context.Background()
	records0, fsyncs0 := w.Stats().Appended, w.Stats().Fsyncs
	epoch0 := e.Epoch()
	start := time.Now()
	if batch <= 1 {
		for i := 0; i < elements; i++ {
			if _, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(chronon.Chronon(i))}, ""); err != nil {
				return out, err
			}
		}
	} else {
		ins := make([]relation.Insertion, 0, batch)
		for i := 0; i < elements; i += len(ins) {
			ins = ins[:0]
			for j := i; j < elements && len(ins) < batch; j++ {
				ins = append(ins, relation.Insertion{VT: element.EventAt(chronon.Chronon(j))})
			}
			res, err := e.InsertBatch(ctx, ins, nil, false)
			if err != nil {
				return out, err
			}
			if res.Stored != len(ins) {
				return out, fmt.Errorf("%s: batch stored %d of %d", name, res.Stored, len(ins))
			}
		}
	}
	elapsed := time.Since(start)
	out.DurationMS = elapsed.Milliseconds()
	out.ElemsPerSec = float64(elements) / elapsed.Seconds()
	out.WALRecords = w.Stats().Appended - records0
	out.Fsyncs = w.Stats().Fsyncs - fsyncs0
	out.Epochs = e.Epoch() - epoch0
	if got := e.Info().Versions; got != elements {
		return out, fmt.Errorf("%s: relation holds %d versions, want %d", name, got, elements)
	}
	return out, cat.Close()
}

// runS9 measures the three ingest claims and writes BENCH_ingest.json.
func runS9(n int) error {
	// The single-insert stream acks one fsync'd frame per element; keep it
	// seconds-scale and normalize everything to elements/sec.
	single := n / 10
	if single > 2000 {
		single = 2000
	}
	if single < 100 {
		single = 100
	}
	res := ingestResult{Experiment: "S9"}
	configs := []struct {
		name     string
		batch    int
		elements int
	}{
		{"single insert", 1, single},
		{"batch=32", 32, n},
		{"batch=256", 256, n},
	}
	fmt.Printf("%-16s %12s %12s %12s %10s %10s\n", "configuration", "elements", "elems/s", "wal records", "fsyncs", "epochs")
	for _, cfg := range configs {
		row, err := runS9Config(cfg.name, cfg.batch, cfg.elements)
		if err != nil {
			return err
		}
		res.Configs = append(res.Configs, row)
		fmt.Printf("%-16s %12d %12.0f %12d %10d %10d\n",
			row.Name, row.Elements, row.ElemsPerSec, row.WALRecords, row.Fsyncs, row.Epochs)
	}
	res.SpeedupAt256 = res.Configs[2].ElemsPerSec / res.Configs[0].ElemsPerSec
	fmt.Printf("batch=256 vs single insert: %.1fx sustained elements/sec\n", res.SpeedupAt256)
	if res.SpeedupAt256 < 10 {
		return fmt.Errorf("batch=256 speedup %.1fx < 10x claim", res.SpeedupAt256)
	}
	// One frame per full batch: the WAL record count is the proof the
	// amortization is structural, not a timing artifact.
	if want := uint64((n + 255) / 256); res.Configs[2].WALRecords != want {
		return fmt.Errorf("batch=256 wrote %d WAL records for %d elements, want %d",
			res.Configs[2].WALRecords, n, want)
	}

	// Replay: a log of nothing but batch frames, rebooted cold.
	dir, err := os.MkdirTemp("", "tsdb-ingestreplay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")
	w, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncInterval})
	if err != nil {
		return err
	}
	cat := catalog.New(catalog.Config{NewClock: logicalClocks(), WAL: w})
	if err := cat.Open(); err != nil {
		return err
	}
	e, err := cat.Create(relation.Schema{Name: "fire", ValidTime: element.EventStamp, Granularity: 1})
	if err != nil {
		return err
	}
	ctx := context.Background()
	batches := 0
	for i := 0; i < n; i += 256 {
		ins := make([]relation.Insertion, 0, 256)
		for j := i; j < n && len(ins) < 256; j++ {
			ins = append(ins, relation.Insertion{VT: element.EventAt(chronon.Chronon(j))})
		}
		if _, err := e.InsertBatch(ctx, ins, nil, false); err != nil {
			return err
		}
		batches++
	}
	if err := w.Close(); err != nil {
		return err
	}
	start := time.Now()
	w2, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		return err
	}
	defer w2.Close()
	cat2 := catalog.New(catalog.Config{NewClock: logicalClocks(), WAL: w2})
	if err := cat2.Open(); err != nil {
		return err
	}
	replay := time.Since(start)
	e2, err := cat2.Get("fire")
	if err != nil {
		return err
	}
	if got := e2.Info().Versions; got != n {
		return fmt.Errorf("replay recovered %d elements, want %d", got, n)
	}
	res.ReplayElements = n
	res.ReplayBatches = batches
	res.ReplayMS = replay.Milliseconds()
	res.ReplayElemsPerSec = float64(n) / replay.Seconds()
	fmt.Printf("replay: %d elements in %d batch frames rebooted in %v (%.0f elements/s)\n",
		n, batches, replay.Round(time.Millisecond), res.ReplayElemsPerSec)

	// Follower catch-up over the batched feed: frames ship as-is, so the
	// follower pays one apply per 256 elements too.
	root, err := os.MkdirTemp("", "tsdb-ingestship-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	primary, pcat, err := bootClusterPrimary(root + "/primary")
	if err != nil {
		return err
	}
	defer primary.stop()
	pcli := client.New(primary.url)
	if _, err := pcli.Create(ctx, client.Schema{Name: "fire", ValidTime: "event", Granularity: 1}); err != nil {
		return err
	}
	reqs := make([]client.InsertRequest, 0, 256)
	for i := 0; i < n; i += len(reqs) {
		reqs = reqs[:0]
		for j := i; j < n && len(reqs) < 256; j++ {
			reqs = append(reqs, client.InsertRequest{VT: client.EventAt(int64(j))})
		}
		if _, err := pcli.InsertBatch(ctx, "fire", reqs, false); err != nil {
			return err
		}
	}
	durable := pcat.WAL().DurableLSN()
	f, catchup, err := bootClusterFollower(root+"/follower", primary.url)
	if err != nil {
		return err
	}
	defer f.stop()
	res.ShipElements = n
	res.ShipMS = catchup.Milliseconds()
	res.ShipElemsPerSec = float64(n) / catchup.Seconds()
	fmt.Printf("follower: caught up %d elements (%d durable WAL records) in %v (%.0f elements/s)\n",
		n, durable, catchup.Round(time.Millisecond), res.ShipElemsPerSec)

	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_ingest.json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_ingest.json")
	return nil
}
