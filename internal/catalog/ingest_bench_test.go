package catalog

// Microbenchmarks for the ingest path: single acked inserts against
// batched frames at 32 and 256 elements, all on a group-commit WAL.
// `make bench-smoke` runs these as a regression tripwire; the sustained
// throughput claim lives in cmd/benchrunner -exp S9. The reported
// elems/s metric is what S9's table normalizes to.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/backlog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
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

// followerFeed mints the frames a primary ships for one event relation
// named "bench": data frames of fresh inserts (vt = tt) and single
// deletes of the oldest current element.
type followerFeed struct {
	lsn  uint64
	tt   chronon.Chronon
	es   surrogate.Surrogate
	live []surrogate.Surrogate
}

func (f *followerFeed) record(kind wal.Kind, payload []byte) wal.Record {
	f.lsn++
	return wal.Record{LSN: f.lsn, Kind: kind, Rel: "bench", Payload: payload}
}

func (f *followerFeed) data(b *testing.B, recs []dataRecord) wal.Record {
	payload, err := encodeData(recs)
	if err != nil {
		b.Fatal(err)
	}
	return f.record(walData, payload)
}

func (f *followerFeed) inserts(b *testing.B, n int) wal.Record {
	recs := make([]dataRecord, n)
	for i := range recs {
		f.tt += 10
		f.es++
		el := &element.Element{ES: f.es, OS: f.es, VT: element.EventAt(f.tt)}
		recs[i] = dataRecord{rec: relation.LogRecord{Op: relation.OpInsert, TT: f.tt, Elem: el}}
		f.live = append(f.live, f.es)
	}
	return f.data(b, recs)
}

func (f *followerFeed) delete(b *testing.B) wal.Record {
	f.tt += 10
	es := f.live[0]
	f.live = f.live[1:]
	return f.data(b, []dataRecord{{rec: relation.LogRecord{Op: relation.OpDelete, TT: f.tt, Elem: &element.Element{ES: es}}}})
}

// benchFollower boots a follower holding a relation of n current
// elements, shipped as one catch-up batch.
func benchFollower(b *testing.B, n int) (*Catalog, *followerFeed) {
	b.Helper()
	c := New(Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, Follower: true})
	if err := c.Open(); err != nil {
		b.Fatalf("Open: %v", err)
	}
	f := &followerFeed{}
	f.catchUp(b, c, n, f.record(walCreate, backlog.EncodeSchema(relation.Schema{
		Name: "bench", ValidTime: element.EventStamp, Granularity: 1,
	})))
	return c, f
}

// catchUp ships recs followed by n inserts to c in one batch.
func (f *followerFeed) catchUp(b *testing.B, c *Catalog, n int, recs ...wal.Record) {
	for left := n; left > 0; left -= 1024 {
		recs = append(recs, f.inserts(b, min(left, 1024)))
	}
	if err := c.ApplyReplicated(recs); err != nil {
		b.Fatalf("catch-up: %v", err)
	}
}

// BenchmarkFollowerApply times a tailing follower applying one shipped
// frame per ApplyReplicated call: a 256-insert batch on a relation that
// starts at 1k or 100k elements (it grows by 256 per frame), and a
// single delete on a 100k-element relation. Apply cost should not grow
// with relation size.
func BenchmarkFollowerApply(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("insert256/%dk", n/1000), func(b *testing.B) {
			c, f := benchFollower(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rec := f.inserts(b, 256)
				b.StartTimer()
				if err := c.ApplyReplicated([]wal.Record{rec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("delete1/100k", func(b *testing.B) {
		c, f := benchFollower(b, 100_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if len(f.live) == 0 {
				f.catchUp(b, c, 100_000)
			}
			rec := f.delete(b)
			b.StartTimer()
			if err := c.ApplyReplicated([]wal.Record{rec}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
