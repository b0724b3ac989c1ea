package catalog

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tx"
	"repro/internal/wal"
)

// relModel is the acknowledged state of one relation: what a correct
// recovery must show, no more and no less.
type relModel struct {
	inserted []surrogate.Surrogate
	deleted  map[surrogate.Surrogate]bool
	decls    int
	keys     []string // acknowledged idempotency keys
}

type walModel struct{ rels map[string]*relModel }

func newWALModel() *walModel { return &walModel{rels: make(map[string]*relModel)} }

func (m *walModel) rel(name string) *relModel {
	r, ok := m.rels[name]
	if !ok {
		r = &relModel{deleted: make(map[surrogate.Surrogate]bool)}
		m.rels[name] = r
	}
	return r
}

// walWorkload runs the scripted mutation sequence against c, updating the
// model only for acknowledged operations, and stops at the first error
// (the injected crash). It returns the number of acknowledged steps.
func walWorkload(t *testing.T, c *Catalog, m *walModel) (int, error) {
	t.Helper()
	steps := 0
	emp := func() *Entry {
		e, err := c.Get("emp")
		if err != nil {
			t.Fatalf("Get(emp) after acked create: %v", err)
		}
		return e
	}

	// Step 1: create emp.
	if _, err := c.Create(eventSchema("emp")); err != nil {
		return steps, err
	}
	m.rel("emp")
	steps++

	// Steps 2-4: three inserts (tt = 10, 20, 30; all predictive).
	for _, vt := range []chronon.Chronon{50, 60, 70} {
		el, err := emp().InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(vt)}, "")
		if err != nil {
			return steps, err
		}
		m.rel("emp").inserted = append(m.rel("emp").inserted, el.ES)
		steps++
	}

	// Step 5: delete the first element.
	first := m.rel("emp").inserted[0]
	if err := emp().DeleteKeyed(context.Background(), first, ""); err != nil {
		return steps, err
	}
	m.rel("emp").deleted[first] = true
	steps++

	// Step 6: modify the second element (logical delete + fresh insert).
	second := m.rel("emp").inserted[1]
	repl, err := emp().ModifyKeyed(context.Background(), second, element.EventAt(80), nil, "")
	if err != nil {
		return steps, err
	}
	m.rel("emp").deleted[second] = true
	m.rel("emp").inserted = append(m.rel("emp").inserted, repl.ES)
	steps++

	// Step 7: a batched insert — three elements in ONE WAL frame. The
	// model adds all three only on acknowledgment: recovery after a
	// crash anywhere inside the batch must show all of them or none
	// (the CRC admits whole frames only), never a torn prefix.
	bres, err := emp().InsertBatch(context.Background(), []relation.Insertion{
		{VT: element.EventAt(90)},
		{VT: element.EventAt(95)},
		{VT: element.EventAt(99)},
	}, []string{"bk-1", "bk-2", "bk-3"}, false)
	if err != nil {
		return steps, err
	}
	for i, it := range bres.Items {
		if it.Status != BatchStored || it.Elem == nil {
			t.Fatalf("batch item %d = %+v, want stored", i, it)
		}
		m.rel("emp").inserted = append(m.rel("emp").inserted, it.Elem.ES)
	}
	m.rel("emp").keys = append(m.rel("emp").keys, "bk-1", "bk-2", "bk-3")
	steps++

	// Step 8: a keyed delete of the first batched element.
	batched := m.rel("emp").inserted[len(m.rel("emp").inserted)-3:]
	if err := emp().DeleteKeyed(context.Background(), batched[0], "kd-1"); err != nil {
		return steps, err
	}
	m.rel("emp").deleted[batched[0]] = true
	m.rel("emp").keys = append(m.rel("emp").keys, "kd-1")
	steps++

	// Step 9: a keyed modify of the second; its delete and insert share
	// one frame, so recovery shows both or neither.
	krepl, err := emp().ModifyKeyed(context.Background(), batched[1], element.EventAt(150), nil, "km-1")
	if err != nil {
		return steps, err
	}
	m.rel("emp").deleted[batched[1]] = true
	m.rel("emp").inserted = append(m.rel("emp").inserted, krepl.ES)
	m.rel("emp").keys = append(m.rel("emp").keys, "km-1")
	steps++

	// Step 10: declare a constraint the surviving history satisfies.
	pred := constraint.Event{Spec: core.PredictiveSpec()}
	d, ok := constraint.Describe(pred, constraint.PerRelation)
	if !ok {
		t.Fatal("predictive constraint not describable")
	}
	if err := emp().Declare([]constraint.Descriptor{d}); err != nil {
		return steps, err
	}
	m.rel("emp").decls++
	steps++

	// Steps 11-12: a second relation with one retroactive insert.
	if _, err := c.Create(eventSchema("dept")); err != nil {
		return steps, err
	}
	m.rel("dept")
	steps++
	dept, err := c.Get("dept")
	if err != nil {
		t.Fatalf("Get(dept): %v", err)
	}
	el, err := dept.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(5)}, "")
	if err != nil {
		return steps, err
	}
	m.rel("dept").inserted = append(m.rel("dept").inserted, el.ES)
	steps++
	return steps, nil
}

// verifyWALModel asserts the recovered catalog matches the acknowledged
// model exactly: every acked write present, nothing unacked visible.
func verifyWALModel(t *testing.T, k int, c *Catalog, m *walModel) {
	t.Helper()
	for name, rm := range m.rels {
		e, err := c.Get(name)
		if err != nil {
			t.Fatalf("k=%d: acked relation %q lost: %v", k, name, err)
		}
		_ = e.Locked().View(func(r *relation.Relation) error {
			if r.Len() != len(rm.inserted) {
				t.Fatalf("k=%d: %q has %d versions, want %d (acked)", k, name, r.Len(), len(rm.inserted))
			}
			for _, es := range rm.inserted {
				el, ok := r.ByES(es)
				if !ok {
					t.Fatalf("k=%d: %q lost acked element %v", k, name, es)
				}
				if el.Current() == rm.deleted[es] {
					t.Fatalf("k=%d: %q element %v: current=%v, want deleted=%v",
						k, name, es, el.Current(), rm.deleted[es])
				}
			}
			return nil
		})
		if got := len(e.Info().Declarations); got != rm.decls {
			t.Fatalf("k=%d: %q has %d declarations, want %d", k, name, got, rm.decls)
		}
		for _, key := range rm.keys {
			if !e.HasIdemKey(key) {
				t.Fatalf("k=%d: %q forgot acked idempotency key %q", k, name, key)
			}
		}
	}
	if c.Len() != len(m.rels) {
		t.Fatalf("k=%d: catalog holds %d relations, want %d acked (%v)", k, c.Len(), len(m.rels), c.Names())
	}
}

// TestCatalogWALSnapshotTruncatesAndRecovers proves the truncation
// protocol on real files: a snapshot sweep truncates the segments it
// covered, an abrupt stop (no Close, no final flush) loses nothing, and
// the next boot recovers snapshot + log without replaying records twice.
func TestCatalogWALSnapshotTruncatesAndRecovers(t *testing.T) {
	root := t.TempDir()
	dataDir := filepath.Join(root, "data")
	walDir := filepath.Join(root, "wal")
	open := func() (*wal.Log, *Catalog) {
		t.Helper()
		w, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup, SegmentBytes: 512})
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		c := New(Config{Dir: dataDir, NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w})
		if err := c.Open(); err != nil {
			t.Fatalf("catalog.Open: %v", err)
		}
		return w, c
	}

	w, c := open()
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var acked []surrogate.Surrogate
	for i := 0; i < 30; i++ {
		el, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(100 + i))}, "")
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		acked = append(acked, el.ES)
	}
	if w.Stats().Segments < 2 {
		t.Fatal("test needs rolled segments before the snapshot")
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := w.Stats().TruncatedSegments; got == 0 {
		t.Fatal("snapshot truncated no segments")
	}
	// Post-snapshot mutations live only in the log.
	for i := 30; i < 40; i++ {
		el, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(100 + i))}, "")
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		acked = append(acked, el.ES)
	}
	if err := e.DeleteKeyed(context.Background(), acked[0], ""); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Abrupt stop: no Snapshot, no Close — the kill -9 path. The group
	// policy acknowledged every mutation only after its fsync, so the log
	// files already hold them.

	w2, c2 := open()
	if got := w2.Stats().Replayed; got == 0 {
		t.Fatal("second boot replayed nothing; post-snapshot writes lost")
	}
	e2, err := c2.Get("emp")
	if err != nil {
		t.Fatalf("Get after reboot: %v", err)
	}
	_ = e2.Locked().View(func(r *relation.Relation) error {
		if r.Len() != len(acked) {
			t.Fatalf("recovered %d versions, want %d", r.Len(), len(acked))
		}
		for i, es := range acked {
			el, ok := r.ByES(es)
			if !ok {
				t.Fatalf("acked element %d (%v) lost", i, es)
			}
			if (i == 0) == el.Current() {
				t.Fatalf("element %d: current=%v, want deleted=%v", i, el.Current(), i == 0)
			}
		}
		return nil
	})
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("wal Close: %v", err)
	}
}

// TestCatalogWALCrashPointMatrix is the fault-injection matrix: the
// scripted workload runs against an errfs-backed WAL that crashes at the
// k-th file operation, for every k up to the fault-free operation count.
// After each crash the catalog is rebooted from the log and must equal the
// acknowledged prefix exactly — no acked write lost, no unacked write
// visible.
func TestCatalogWALCrashPointMatrix(t *testing.T) {
	// Dry run: count the workload's file operations with no fault armed.
	run := func(fs *wal.ErrFS, k int) (*walModel, int, error) {
		w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways, SegmentBytes: 512})
		if err != nil {
			t.Fatalf("k=%d: fresh wal.Open: %v", k, err)
		}
		c := New(Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w})
		if err := c.Open(); err != nil {
			t.Fatalf("k=%d: fresh catalog.Open: %v", k, err)
		}
		if k > 0 {
			fs.FailAt(k, wal.FaultCrash)
		}
		m := newWALModel()
		_, err = walWorkload(t, c, m)
		return m, fs.Ops(), err
	}

	fs := wal.NewErrFS()
	_, dryOps, err := run(fs, 0)
	if err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	}
	base := wal.NewErrFS()
	if _, err := wal.Open(wal.Options{FS: base, Sync: wal.SyncAlways, SegmentBytes: 512}); err != nil {
		t.Fatal(err)
	}
	preOps := base.Ops() // Open's own header write + sync
	n := dryOps - preOps
	if n < 10 {
		t.Fatalf("workload issues only %d file ops; matrix too thin", n)
	}
	if testing.Short() && n > 12 {
		n = 12
	}

	for k := 1; k <= n; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-%02d", k), func(t *testing.T) {
			fs := wal.NewErrFS()
			m, _, err := run(fs, k)
			if err == nil {
				t.Fatalf("k=%d: workload finished despite armed crash", k)
			}
			if !errors.Is(err, wal.ErrCrashed) {
				t.Fatalf("k=%d: workload error = %v, want ErrCrashed", k, err)
			}
			if !fs.Crashed() {
				t.Fatalf("k=%d: fault never triggered", k)
			}

			// Reboot: unsynced bytes vanish, the log replays, and the
			// catalog must equal the acknowledged prefix.
			fs.CrashRecover()
			w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways, SegmentBytes: 512})
			if err != nil {
				t.Fatalf("k=%d: wal.Open after crash: %v", k, err)
			}
			c := New(Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w})
			if err := c.Open(); err != nil {
				t.Fatalf("k=%d: catalog.Open after crash: %v", k, err)
			}
			verifyWALModel(t, k, c, m)

			// The rebooted catalog accepts new durable writes.
			if len(m.rels) > 0 {
				name := c.Names()[0]
				e, err := c.Get(name)
				if err != nil {
					t.Fatalf("k=%d: Get(%s): %v", k, name, err)
				}
				if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(10_000)}, ""); err != nil {
					t.Fatalf("k=%d: post-recovery insert: %v", k, err)
				}
			}
		})
	}
}
