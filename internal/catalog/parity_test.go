package catalog

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/tx"
	"repro/internal/wal"
)

// parityPhysical is the part of Physical every route to a relation's state
// must agree on. History is left out: replayed migrations carry only what
// the frame preserved, and compaction is derived, per-node state.
type parityPhysical struct {
	Org                         string
	Source                      string
	Reasons                     []string
	Declared, Inferred, Adopted []core.Class
	Migrations                  uint64
	Tracker                     core.TrackerStats
}

func parityOf(p Physical) parityPhysical {
	return parityPhysical{
		Org: p.Org.String(), Source: p.Source, Reasons: p.Reasons,
		Declared: p.Declared, Inferred: p.Inferred, Adopted: p.Adopted,
		Migrations: p.Migrations, Tracker: p.Tracker,
	}
}

// TestReplayParity runs one history through a primary and then reaches
// the same state twice more: by rebooting from the primary's WAL, and by
// a follower applying the shipped log one frame per call. The history
// declares, migrates through an advisor pass, and then takes an
// out-of-order insert that breaks the adopted order mid-stream, so every
// route must fall back exactly as the live commit did.
func TestReplayParity(t *testing.T) {
	walDir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	clock := func() tx.Clock { return tx.NewLogicalClock(0, 10) }
	primary := New(Config{NewClock: clock, WAL: w})
	if err := primary.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	e, err := primary.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Degenerate history (vt = tt on the 0/10 logical clock), with a keyed
	// delete and a keyed modify that keeps vt = tt.
	var els []*element.Element
	tick := int64(0)
	next := func() element.Timestamp { tick += 10; return element.EventAt(chronon.Chronon(tick)) }
	for i := 0; i < 12; i++ {
		el, err := e.InsertKeyed(ctx, relation.Insertion{VT: next()}, "")
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		els = append(els, el)
	}
	if err := e.DeleteKeyed(ctx, els[2].ES, "del-2"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	tick += 10 // the delete took a tick too
	if _, err := e.ModifyKeyed(ctx, els[4].ES, next(), nil, "mod-4"); err != nil {
		t.Fatalf("modify: %v", err)
	}
	d, ok := constraint.Describe(constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
	if !ok {
		t.Fatal("retroactive not describable")
	}
	if err := e.Declare([]constraint.Descriptor{d}); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	rep, err := primary.AdvisePass(AdvisorConfig{})
	if err != nil || len(rep.Migrations) != 1 {
		t.Fatalf("AdvisePass = %+v, %v; want one migration", rep, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.InsertKeyed(ctx, relation.Insertion{VT: next()}, ""); err != nil {
			t.Fatalf("post-migration insert %d: %v", i, err)
		}
	}
	// Retroactive, so the declaration admits it, but it breaks the adopted
	// vt order: the live commit falls back to the general organization.
	late, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(3)}, "late")
	if err != nil {
		t.Fatalf("out-of-order insert: %v", err)
	}
	tick += 10
	if _, err := e.InsertKeyed(ctx, relation.Insertion{VT: next()}, ""); err != nil {
		t.Fatalf("insert after fallback: %v", err)
	}
	if _, err := e.ModifyKeyed(ctx, late.ES, element.EventAt(4), nil, ""); err != nil {
		t.Fatalf("modify after fallback: %v", err)
	}
	if err := e.DeleteKeyed(ctx, els[7].ES, ""); err != nil {
		t.Fatalf("delete after fallback: %v", err)
	}
	recs, _, err := w.IterateFrom(1, 100_000)
	if err != nil {
		t.Fatalf("IterateFrom: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	w2, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal reopen: %v", err)
	}
	defer w2.Close()
	rebooted := New(Config{NewClock: clock, WAL: w2})
	if err := rebooted.Open(); err != nil {
		t.Fatalf("reboot Open: %v", err)
	}
	follower := New(Config{NewClock: clock, Follower: true})
	if err := follower.Open(); err != nil {
		t.Fatalf("follower Open: %v", err)
	}
	for _, rec := range recs {
		if err := follower.ApplyReplicated([]wal.Record{rec}); err != nil {
			t.Fatalf("ApplyReplicated lsn %d: %v", rec.LSN, err)
		}
	}

	want := parityOf(e.Physical())
	if len(want.Adopted) == 0 || len(want.Reasons) == 0 {
		t.Fatalf("primary design %+v: the history must adopt and then fall back", want)
	}
	for _, route := range []struct {
		name string
		c    *Catalog
	}{{"reboot", rebooted}, {"follower", follower}} {
		got, err := route.c.Get("mon")
		if err != nil {
			t.Fatalf("%s: %v", route.name, err)
		}
		if p := parityOf(got.Physical()); !reflect.DeepEqual(p, want) {
			t.Errorf("%s physical design diverged:\n got  %+v\n want %+v", route.name, p, want)
		}
		cur, err := got.CurrentCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		curWant, _ := e.CurrentCtx(ctx)
		sameElements(t, route.name+" current", curWant, cur)
		for vt := chronon.Chronon(0); vt <= chronon.Chronon(tick+30); vt++ {
			a, _ := e.TimesliceCtx(ctx, vt)
			b, _ := got.TimesliceCtx(ctx, vt)
			sameElements(t, route.name+" timeslice", a, b)
		}
		for tt := chronon.Chronon(0); tt <= chronon.Chronon(tick+30); tt += 5 {
			a, _ := e.RollbackCtx(ctx, tt)
			b, _ := got.RollbackCtx(ctx, tt)
			sameElements(t, route.name+" rollback", a, b)
		}
		for _, key := range []string{"del-2", "mod-4", "late"} {
			if !got.HasIdemKey(key) {
				t.Errorf("%s lost idempotency key %q", route.name, key)
			}
		}
		if a, b := e.IntegrityState(), got.IntegrityState(); a.Size != b.Size || a.Root != b.Root {
			t.Errorf("%s Merkle tree size %d root %x, want %d %x", route.name, b.Size, b.Root, a.Size, a.Root)
		}
	}
}
