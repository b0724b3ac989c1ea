package catalog

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/tx"
	"repro/internal/wal"
)

// goldenSnapshotDir holds the snapshot shards writeGoldenSnapshot
// produced before the backlog codec collapsed into one Write/Read pair.
// internal/backlog's golden test pins what Load answers from them; this
// package's test pins that the catalog still writes them byte for byte.
const goldenSnapshotDir = "../backlog/testdata/golden-snapshot"

// writeGoldenSnapshot runs a fixed history through a signing, WAL-backed
// catalog on tx.NewLogicalClock(0, 10) and snapshots it into dir:
//
//	emp: declare per-relation retroactive + per-partition sequential
//	     events; insert ×4, delete, modify, keyed insert
//	mon: eight degenerate inserts; an advisor pass adopts the observed
//	     classes and migrates to the vt-ordered log; one more insert
//
// Every shard carries declarations or an adopted physical design, a WAL
// LSN, and an integrity block with its leaves and a signed root.
func writeGoldenSnapshot(t *testing.T, dir string) {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: wal.NewErrFS(), Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer w.Close()
	signer, err := integrity.NewSigner(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{
		Dir:      dir,
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		WAL:      w,
		Signer:   signer,
	})
	if err := c.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()

	emp, err := c.Create(relation.Schema{
		Name: "emp", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "name", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "salary", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatalf("Create emp: %v", err)
	}
	var descs []constraint.Descriptor
	for _, x := range []struct {
		c     constraint.Constraint
		scope constraint.Scope
	}{
		{constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation},
		{constraint.InterEvent{Spec: core.SequentialEventsSpec()}, constraint.PerPartition},
	} {
		d, ok := constraint.Describe(x.c, x.scope)
		if !ok {
			t.Fatalf("constraint %v not describable", x.c)
		}
		descs = append(descs, d)
	}
	if err := emp.Declare(descs); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	var es []*element.Element
	for i, name := range []string{"alice", "bob", "carol", "dave"} {
		el, err := emp.InsertKeyed(ctx, relation.Insertion{
			VT:        element.EventAt(chronon.Chronon(1 + i)),
			Invariant: []element.Value{element.String_(name)},
			Varying:   []element.Value{element.Int(int64(100 * (i + 1)))},
		}, "")
		if err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
		es = append(es, el)
	}
	if err := emp.DeleteKeyed(ctx, es[1].ES, ""); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := emp.ModifyKeyed(ctx, es[0].ES, element.EventAt(20), []element.Value{element.Int(150)}, ""); err != nil {
		t.Fatalf("modify: %v", err)
	}
	if _, err := emp.InsertKeyed(ctx, relation.Insertion{
		VT:        element.EventAt(11),
		Invariant: []element.Value{element.String_("eve")},
		Varying:   []element.Value{element.Int(500)},
	}, "k-eve"); err != nil {
		t.Fatalf("keyed insert: %v", err)
	}

	mon, err := c.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create mon: %v", err)
	}
	degenerateInserts(t, mon, 8)
	if _, err := c.AdvisePass(AdvisorConfig{}); err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	if _, err := mon.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(90)}, ""); err != nil {
		t.Fatalf("post-migration insert: %v", err)
	}
	if n, err := c.Snapshot(); err != nil || n != 2 {
		t.Fatalf("Snapshot = %d, %v; want 2 shards", n, err)
	}
}

// TestGoldenSnapshotBytes proves the snapshot path still writes the
// committed shards byte for byte: same history, same file format.
func TestGoldenSnapshotBytes(t *testing.T) {
	dir := t.TempDir()
	writeGoldenSnapshot(t, dir)
	for _, name := range []string{"emp.tsbl", "mon.tsbl"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(goldenSnapshotDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot wrote %d bytes differing from the golden %d", name, len(got), len(want))
		}
	}
}
