package catalog

// Microbenchmarks for the read path: epoch-stamped snapshot reads and a
// cache hit. `make bench-smoke` runs
// these at -benchtime=100ms as a cheap regression tripwire; the full
// S4 experiment (cmd/benchrunner -exp S4) measures the concurrent story.

import (
	"context"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
)

func benchEntry(b *testing.B, cfg Config, elements int) *Entry {
	b.Helper()
	cfg.Dir = b.TempDir()
	c := New(cfg)
	e, err := c.Create(relation.Schema{
		Name: "bench", ValidTime: element.EventStamp, Granularity: chronon.Second,
	})
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	for vt := 0; vt < elements; vt++ {
		if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}, ""); err != nil {
			b.Fatalf("Insert: %v", err)
		}
	}
	return e
}

func benchTimeslices(b *testing.B, e *Entry, elements int) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vt := chronon.Chronon((i * 7919) % elements)
		res, err := e.TimesliceCtx(ctx, vt)
		if err != nil {
			b.Fatalf("Timeslice: %v", err)
		}
		if len(res.Elements) == 0 {
			b.Fatalf("timeslice at %d found nothing", vt)
		}
	}
}

func BenchmarkReadPathSnapshot(b *testing.B) {
	const elements = 4096
	e := benchEntry(b, Config{}, elements)
	benchTimeslices(b, e, elements)
}

func BenchmarkReadPathCacheHit(b *testing.B) {
	const elements = 4096
	e := benchEntry(b, Config{CacheBytes: 1 << 20}, elements)
	ctx := context.Background()
	fixed := chronon.Chronon(elements / 2)
	if _, err := e.TimesliceCtx(ctx, fixed); err != nil { // fill the cache
		b.Fatalf("warm: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.TimesliceCtx(ctx, fixed)
		if err != nil {
			b.Fatalf("Timeslice: %v", err)
		}
		if len(res.Elements) == 0 {
			b.Fatal("cache hit returned nothing")
		}
	}
}
