package catalog

// Read-path tests: the epoch-stamped snapshot views, the plan-keyed result
// cache, and their interaction with every mutation kind. The stress test is
// the -race companion of the design: readers pin a published view and never
// block behind (or observe half of) a concurrent writer.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tsql"
	"repro/internal/wal"
)

func cachedConfig(dir string) Config {
	cfg := testConfig(dir)
	cfg.CacheBytes = 1 << 20
	return cfg
}

func mustInsert(t *testing.T, e *Entry, vt int64) *element.Element {
	t.Helper()
	el, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}, "")
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	return el
}

func TestEpochAdvancesOnEveryMutationKind(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	last := e.Epoch()
	if last == 0 {
		t.Fatal("fresh entry has epoch 0: no view published")
	}
	bump := func(op string) {
		t.Helper()
		if got := e.Epoch(); got <= last {
			t.Fatalf("%s: epoch %d did not advance past %d", op, got, last)
		} else {
			last = got
		}
	}

	el := mustInsert(t, e, 1)
	bump("insert")
	mustInsert(t, e, 2)
	bump("insert")
	if _, err := e.ModifyKeyed(context.Background(), el.ES, element.EventAt(3), nil, ""); err != nil {
		t.Fatalf("modify: %v", err)
	}
	bump("modify")
	el3 := mustInsert(t, e, 4)
	bump("insert")
	if err := e.DeleteKeyed(context.Background(), el3.ES, ""); err != nil {
		t.Fatalf("delete: %v", err)
	}
	bump("delete")
	retro := mustDescribe(t, constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
	if err := e.Declare([]constraint.Descriptor{retro}); err != nil {
		t.Fatalf("declare: %v", err)
	}
	bump("declare")
	// A no-op vacuum (horizon below every closed TTEnd) publishes nothing:
	// reads keep their epoch and cache.
	if n, err := e.Vacuum(5); err != nil || n != 0 {
		t.Fatalf("no-op vacuum removed %d, err %v", n, err)
	}
	if got := e.Epoch(); got != last {
		t.Fatalf("no-op vacuum bumped epoch %d -> %d", last, got)
	}

	if n, err := e.Vacuum(chronon.Forever - 1); err != nil || n == 0 {
		t.Fatalf("vacuum removed %d, err %v", n, err)
	}
	bump("vacuum")
}

func TestQueryCacheHitsAndEpochInvalidation(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	mustInsert(t, e, 5)
	ctx := context.Background()

	r1, err := e.TimesliceCtx(ctx, 5)
	if err != nil {
		t.Fatalf("timeslice: %v", err)
	}
	st0 := c.Cache().Stats()
	r2, err := e.TimesliceCtx(ctx, 5)
	if err != nil {
		t.Fatalf("timeslice: %v", err)
	}
	st1 := c.Cache().Stats()
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("repeat timeslice was not a cache hit: %+v -> %+v", st0, st1)
	}
	if len(r2.Elements) != len(r1.Elements) || r2.Epoch != r1.Epoch {
		t.Fatalf("cached result diverged: %+v vs %+v", r2, r1)
	}
	// Per-plan-kind accounting must keep counting on hits.
	if r1.Node != nil {
		kind := r1.Node.Leaf().Kind.String()
		if got := e.PlanStats()[kind].Queries; got < 2 {
			t.Fatalf("plan kind %q counted %d queries, want >= 2", kind, got)
		}
	}

	// A mutation bumps the epoch: the same query misses and recomputes
	// against the new view.
	mustInsert(t, e, 5)
	r3, err := e.TimesliceCtx(ctx, 5)
	if err != nil {
		t.Fatalf("timeslice: %v", err)
	}
	if r3.Epoch <= r1.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", r1.Epoch, r3.Epoch)
	}
	if len(r3.Elements) != len(r1.Elements)+1 {
		t.Fatalf("post-mutation timeslice saw %d elements, want %d",
			len(r3.Elements), len(r1.Elements)+1)
	}
	st2 := c.Cache().Stats()
	if st2.Hits != st1.Hits {
		t.Fatalf("post-mutation query served stale cache: %+v", st2)
	}

	// Declare and vacuum invalidate the same way: fresh epoch, fresh miss.
	for _, step := range []struct {
		op  string
		run func() error
	}{
		{"declare", func() error {
			retro := mustDescribe(t, constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
			return e.Declare([]constraint.Descriptor{retro})
		}},
		{"vacuum", func() error {
			el := mustInsert(t, e, 4)
			if err := e.DeleteKeyed(ctx, el.ES, ""); err != nil {
				return err
			}
			_, err := e.Vacuum(chronon.Forever - 1)
			return err
		}},
	} {
		before, _ := e.TimesliceCtx(ctx, 5)
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.op, err)
		}
		after, err := e.TimesliceCtx(ctx, 5)
		if err != nil {
			t.Fatalf("%s timeslice: %v", step.op, err)
		}
		if after.Epoch <= before.Epoch {
			t.Fatalf("%s did not invalidate: epoch %d -> %d", step.op, before.Epoch, after.Epoch)
		}
	}
}

func TestWALReplayPublishesFreshView(t *testing.T) {
	dir := t.TempDir()
	walDir := t.TempDir()
	wlog, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cfg := cachedConfig(dir)
	cfg.WAL = wlog
	c := New(cfg)
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	mustInsert(t, e, 1)
	el := mustInsert(t, e, 2)
	if err := e.DeleteKeyed(context.Background(), el.ES, ""); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	// Reopen: replay rebuilds the relation, and the entry must publish a
	// view whose epoch reflects the replayed history — not a stale or
	// zero-epoch view of the empty relation.
	wlog2, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal reopen: %v", err)
	}
	defer wlog2.Close()
	cfg2 := cachedConfig(dir)
	cfg2.WAL = wlog2
	c2 := New(cfg2)
	if err := c2.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	e2, err := c2.Get("emp")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if e2.Epoch() == 0 {
		t.Fatal("replayed entry has epoch 0")
	}
	res, err := e2.CurrentCtx(context.Background())
	if err != nil {
		t.Fatalf("current: %v", err)
	}
	if len(res.Elements) != 1 {
		t.Fatalf("replayed current = %d elements, want 1", len(res.Elements))
	}
	if res.Epoch != e2.Epoch() {
		t.Fatalf("result epoch %d != entry epoch %d", res.Epoch, e2.Epoch())
	}
}

// TestSnapshotReadStress interleaves every mutation kind with every read
// kind. Run under -race; the assertions pin view consistency — a Current
// result from a pinned snapshot contains only elements open in that
// snapshot, even while writers concurrently close them.
func TestSnapshotReadStress(t *testing.T) {
	cfg := cachedConfig(t.TempDir())
	c := New(cfg)
	schema := eventSchema("stress")
	schema.Varying = []relation.Column{{Name: "v", Type: element.KindInt}}
	e, err := c.Create(schema)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	sel, err := tsql.Parse("SELECT v FROM stress WHEN VALID AT 3")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	const (
		writers = 2
		readers = 6
		perG    = 150
	)
	ctx := context.Background()
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []*element.Element
			for i := 0; i < perG; i++ {
				switch i % 4 {
				case 0, 1:
					el, err := e.InsertKeyed(ctx, relation.Insertion{
						VT:      element.EventAt(chronon.Chronon(i % 7)),
						Varying: []element.Value{element.Int(int64(i))},
					}, "")
					if err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					mine = append(mine, el)
				case 2:
					if len(mine) > 0 {
						el := mine[0]
						mine = mine[1:]
						if err := e.DeleteKeyed(ctx, el.ES, ""); err != nil {
							t.Errorf("delete: %v", err)
							return
						}
					}
				case 3:
					if len(mine) > 0 {
						if _, err := e.ModifyKeyed(ctx, mine[0].ES, element.EventAt(chronon.Chronon(i%7)),
							[]element.Value{element.Int(int64(-i))}, ""); err != nil {
							t.Errorf("modify: %v", err)
							return
						}
						mine = mine[1:]
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 6 {
				case 0:
					res, err := e.CurrentCtx(ctx)
					if err != nil {
						t.Errorf("current: %v", err)
						return
					}
					for _, el := range res.Elements {
						if !el.Current() {
							t.Errorf("pinned view returned a closed element (tt_end %d)", el.TTEnd)
							return
						}
					}
				case 1:
					if _, err := e.TimesliceCtx(ctx, chronon.Chronon(i%7)); err != nil {
						t.Errorf("timeslice: %v", err)
						return
					}
				case 2:
					if _, err := e.RollbackCtx(ctx, chronon.Chronon(10*i)); err != nil {
						t.Errorf("rollback: %v", err)
						return
					}
				case 3:
					if _, err := e.TimesliceAsOfCtx(ctx, chronon.Chronon(i%7), chronon.Chronon(10*i)); err != nil {
						t.Errorf("asof: %v", err)
						return
					}
				case 4:
					if _, _, _, err := e.SelectCtx(ctx, sel); err != nil {
						t.Errorf("select: %v", err)
						return
					}
				case 5:
					ex, err := e.ExplainCtx(ctx, "sel", func(a plan.Access) *plan.Node { return tsql.Compile(sel, a) })
					if err != nil || ex.Node == nil {
						t.Error("explain returned nil plan")
						return
					}
				}
			}
		}(r)
	}

	// A vacuum and a declare race the whole mix.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := e.Vacuum(chronon.Chronon(100 * i)); err != nil {
				t.Errorf("vacuum: %v", err)
				return
			}
		}
	}()
	retro := mustDescribe(t, constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A concurrent writer may legitimately violate the declaration
		// mid-validation; rejection is fine, only races are bugs here.
		_ = e.Declare([]constraint.Descriptor{retro})
	}()

	wg.Wait()

	// The final view reconciles: live count equals inserts minus deletes.
	res, err := e.CurrentCtx(ctx)
	if err != nil {
		t.Fatalf("final current: %v", err)
	}
	for _, el := range res.Elements {
		if !el.Current() {
			t.Fatalf("final view holds closed element %v", el.ES)
		}
	}
	if len(res.Elements) == 0 {
		t.Fatal("final current empty")
	}
}
