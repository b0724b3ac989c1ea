package catalog

// Resilience behaviors: WAL poisoning flips the catalog into read-only
// degraded mode (reads serve, every mutation fails typed), idempotency
// keys dedup replayed mutations — in memory and across a WAL-replay
// reboot — and keyed WAL frames round-trip.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tx"
	"repro/internal/wal"
)

// bootErrFS opens a SyncAlways WAL over fs and a catalog on it.
func bootErrFS(t *testing.T, fs *wal.ErrFS) (*wal.Log, *Catalog) {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	c := New(Config{Dir: t.TempDir(), NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w})
	if err := c.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	return w, c
}

func TestWALPoisonFlipsReadOnly(t *testing.T) {
	fs := wal.NewErrFS()
	w, c := bootErrFS(t, fs)
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	el, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(100)}, "")
	if err != nil {
		t.Fatalf("healthy insert: %v", err)
	}

	// Fail the next file op: the insert's WAL append errors and the log
	// poisons fail-stop.
	fs.FailAt(1, wal.FaultError)
	if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(200)}, ""); err == nil {
		t.Fatal("insert over injected fault succeeded")
	}
	if w.Err() == nil {
		t.Fatal("log did not poison")
	}

	// Every mutation path now fails typed ErrReadOnly.
	if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(300)}, ""); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert on poisoned log = %v, want ErrReadOnly", err)
	}
	if err := e.DeleteKeyed(context.Background(), el.ES, ""); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("delete on poisoned log = %v, want ErrReadOnly", err)
	}
	if _, err := e.ModifyKeyed(context.Background(), el.ES, element.EventAt(150), nil, ""); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("modify on poisoned log = %v, want ErrReadOnly", err)
	}
	if _, err := c.Create(eventSchema("dept")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("create on poisoned log = %v, want ErrReadOnly", err)
	}
	if _, err := c.Snapshot(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot on poisoned log = %v, want ErrReadOnly", err)
	}
	if err := c.Degraded(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Degraded = %v, want ErrReadOnly", err)
	}

	// Reads keep serving the pre-poison state.
	if got := len(currentOf(t, e)); got != 1 {
		t.Fatalf("degraded Current has %d elements, want 1", got)
	}

	// The failed and refused inserts must not be visible: only the acked
	// element exists.
	_ = e.Locked().View(func(r *relation.Relation) error {
		if r.Len() != 1 {
			t.Fatalf("relation holds %d versions, want 1 acked", r.Len())
		}
		return nil
	})
}

func TestIdempotencyKeyDedupsAndSurvivesReplay(t *testing.T) {
	fs := wal.NewErrFS()
	_, c := bootErrFS(t, fs)
	ctx := context.Background()
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	el, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(100)}, "ins-1")
	if err != nil {
		t.Fatalf("keyed insert: %v", err)
	}
	// Replay with the same key: the original element, no second event.
	again, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(100)}, "ins-1")
	if err != nil {
		t.Fatalf("replayed insert: %v", err)
	}
	if again.ES != el.ES {
		t.Fatalf("replay returned ES %v, want original %v", again.ES, el.ES)
	}
	// Same key, different operation: typed reuse error.
	if err := e.DeleteKeyed(ctx, el.ES, "ins-1"); !errors.Is(err, ErrIdemReuse) {
		t.Fatalf("key reuse across ops = %v, want ErrIdemReuse", err)
	}

	victim, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(200)}, "ins-2")
	if err != nil {
		t.Fatalf("second insert: %v", err)
	}
	if err := e.DeleteKeyed(ctx, victim.ES, "del-1"); err != nil {
		t.Fatalf("keyed delete: %v", err)
	}
	ttEnd := mustByES(t, e, victim.ES).TTEnd
	// Replayed delete: acknowledged without touching the element again.
	if err := e.DeleteKeyed(ctx, victim.ES, "del-1"); err != nil {
		t.Fatalf("replayed delete: %v", err)
	}
	if got := mustByES(t, e, victim.ES).TTEnd; got != ttEnd {
		t.Fatalf("replayed delete moved TTEnd %v -> %v", ttEnd, got)
	}

	repl, err := e.ModifyKeyed(ctx, el.ES, element.EventAt(150), nil, "mod-1")
	if err != nil {
		t.Fatalf("keyed modify: %v", err)
	}
	replAgain, err := e.ModifyKeyed(ctx, el.ES, element.EventAt(150), nil, "mod-1")
	if err != nil {
		t.Fatalf("replayed modify: %v", err)
	}
	if replAgain.ES != repl.ES {
		t.Fatalf("replayed modify returned ES %v, want %v", replAgain.ES, repl.ES)
	}
	versions := lenOf(t, e)

	// Reboot from the WAL alone: the dedup window must replay with the
	// history, so a retry that straddles a crash still dedups.
	fs.CrashRecover()
	_, c2 := bootErrFS(t, fs)
	e2, err := c2.Get("emp")
	if err != nil {
		t.Fatalf("Get after reboot: %v", err)
	}
	if got := lenOf(t, e2); got != versions {
		t.Fatalf("recovered %d versions, want %d", got, versions)
	}
	again2, err := e2.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(100)}, "ins-1")
	if err != nil {
		t.Fatalf("post-reboot replayed insert: %v", err)
	}
	if again2.ES != el.ES {
		t.Fatalf("post-reboot replay returned ES %v, want original %v", again2.ES, el.ES)
	}
	if got := lenOf(t, e2); got != versions {
		t.Fatalf("post-reboot replay grew history to %d versions, want %d", got, versions)
	}
	if err := e2.DeleteKeyed(ctx, el.ES, "ins-1"); !errors.Is(err, ErrIdemReuse) {
		t.Fatalf("post-reboot key reuse = %v, want ErrIdemReuse", err)
	}
	// The delete and the modify replayed from their data frames dedup
	// too: the delete acknowledges without a second close, and the modify
	// answers with the replacement its original commit produced.
	if err := e2.DeleteKeyed(ctx, victim.ES, "del-1"); err != nil {
		t.Fatalf("post-reboot replayed delete: %v", err)
	}
	replAgain2, err := e2.ModifyKeyed(ctx, el.ES, element.EventAt(150), nil, "mod-1")
	if err != nil {
		t.Fatalf("post-reboot replayed modify: %v", err)
	}
	if replAgain2.ES != repl.ES {
		t.Fatalf("post-reboot replayed modify returned ES %v, want %v", replAgain2.ES, repl.ES)
	}
	if got := lenOf(t, e2); got != versions {
		t.Fatalf("post-reboot replays grew history to %d versions, want %d", got, versions)
	}
	if _, err := e2.ModifyKeyed(ctx, el.ES, element.EventAt(150), nil, "del-1"); !errors.Is(err, ErrIdemReuse) {
		t.Fatalf("post-reboot delete key reused for modify = %v, want ErrIdemReuse", err)
	}
}

// TestSingleWritesJournalOneDataFrame pins the single data frame: an
// insert, a delete, and a modify each append exactly one walData record,
// and the frame holds the mutation's backlog records with its key on the
// last one — a modify's delete and insert share one transaction time.
func TestSingleWritesJournalOneDataFrame(t *testing.T) {
	fs := wal.NewErrFS()
	w, c := bootErrFS(t, fs)
	ctx := context.Background()
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	type want struct {
		op  relation.Op
		key string
	}
	frame := func(what string, write func() error, wants ...want) {
		t.Helper()
		before := w.LastLSN()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		recs, _, err := w.IterateFrom(before+1, 0)
		if err != nil {
			t.Fatalf("%s: IterateFrom: %v", what, err)
		}
		if len(recs) != 1 || recs[0].Kind != walData {
			t.Fatalf("%s wrote %d records (%+v), want one of kind %d", what, len(recs), recs, walData)
		}
		got, err := decodeData(recs[0].Payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", what, err)
		}
		if len(got) != len(wants) {
			t.Fatalf("%s frame holds %d records, want %d", what, len(got), len(wants))
		}
		for i, wt := range wants {
			if got[i].rec.Op != wt.op || got[i].key != wt.key {
				t.Fatalf("%s record %d = op %v key %q, want op %v key %q", what, i, got[i].rec.Op, got[i].key, wt.op, wt.key)
			}
		}
		if len(got) == 2 && got[0].rec.TT != got[1].rec.TT {
			t.Fatalf("%s pair at tt %v and %v, want one tt", what, got[0].rec.TT, got[1].rec.TT)
		}
	}
	var el *element.Element
	frame("insert", func() (err error) {
		el, err = e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(100)}, "ins")
		return err
	}, want{relation.OpInsert, "ins"})
	frame("modify", func() (err error) {
		el, err = e.ModifyKeyed(ctx, el.ES, element.EventAt(110), nil, "mod")
		return err
	}, want{relation.OpDelete, ""}, want{relation.OpInsert, "mod"})
	frame("delete", func() error { return e.DeleteKeyed(ctx, el.ES, "") }, want{relation.OpDelete, ""})
}

func TestIdempotencyKeyLimits(t *testing.T) {
	fs := wal.NewErrFS()
	_, c := bootErrFS(t, fs)
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	long := strings.Repeat("k", maxIdemKeyLen+1)
	if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(1)}, long); err == nil {
		t.Fatal("oversized idempotency key accepted")
	}

	// The window is a FIFO of dedupWindowCap: an evicted key no longer
	// dedups (the retry window has passed), but never errors.
	w := newDedupWindow()
	for i := 0; i < dedupWindowCap+10; i++ {
		w.remember(string(rune('a'+i%26))+itoa(i), opInsert, nil)
	}
	if len(w.m) != dedupWindowCap || len(w.order) != dedupWindowCap {
		t.Fatalf("window holds %d/%d entries, want %d", len(w.m), len(w.order), dedupWindowCap)
	}
	if _, ok := w.lookup("a" + itoa(0)); ok {
		t.Fatal("oldest key survived eviction")
	}
}

func itoa(i int) string {
	return string(rune('0'+i/1000%10)) + string(rune('0'+i/100%10)) +
		string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func mustByES(t *testing.T, e *Entry, es surrogate.Surrogate) *element.Element {
	t.Helper()
	var out *element.Element
	_ = e.Locked().View(func(r *relation.Relation) error {
		el, ok := r.ByES(es)
		if !ok {
			t.Fatalf("element %v not found", es)
		}
		out = el
		return nil
	})
	return out
}

func lenOf(t *testing.T, e *Entry) int {
	t.Helper()
	n := 0
	_ = e.Locked().View(func(r *relation.Relation) error {
		n = r.Len()
		return nil
	})
	return n
}
