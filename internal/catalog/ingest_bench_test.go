package catalog

// Microbenchmarks for the ingest path: single acked inserts against
// batched frames at 32 and 256 elements, all on a group-commit WAL.
// `make bench-smoke` runs these as a regression tripwire; the sustained
// throughput claim lives in cmd/benchrunner -exp S9. The reported
// elems/s metric is what S9's table normalizes to.

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/tx"
	"repro/internal/wal"
)

func benchWALEntry(b *testing.B) *Entry {
	b.Helper()
	dir := b.TempDir()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncGroup})
	if err != nil {
		b.Fatalf("wal.Open: %v", err)
	}
	b.Cleanup(func() { w.Close() })
	c := New(Config{
		Dir:      filepath.Join(dir, "data"),
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		WAL:      w,
	})
	if err := c.Open(); err != nil {
		b.Fatalf("catalog.Open: %v", err)
	}
	e, err := c.Create(relation.Schema{
		Name: "bench", ValidTime: element.EventStamp, Granularity: 1,
	})
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	return e
}

func benchInsertBatch(b *testing.B, batch int) {
	e := benchWALEntry(b)
	ctx := context.Background()
	ins := make([]relation.Insertion, batch)
	vt := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ins {
			vt++
			ins[j] = relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}
		}
		res, err := e.InsertBatch(ctx, ins, nil, false)
		if err != nil {
			b.Fatalf("InsertBatch: %v", err)
		}
		if res.Stored != batch {
			b.Fatalf("stored %d, want %d", res.Stored, batch)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "elems/s")
}

// BenchmarkInsertBatchSingle is the baseline the batches amortize: one
// acked WAL frame, one epoch publish, one Merkle leaf per element.
func BenchmarkInsertBatchSingle(b *testing.B) {
	e := benchWALEntry(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(i))}, ""); err != nil {
			b.Fatalf("Insert: %v", err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "elems/s")
}

func BenchmarkInsertBatch32(b *testing.B)  { benchInsertBatch(b, 32) }
func BenchmarkInsertBatch256(b *testing.B) { benchInsertBatch(b, 256) }
