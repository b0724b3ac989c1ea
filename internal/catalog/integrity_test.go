package catalog

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
)

// integOpen boots a signed, WAL-backed catalog over the given root,
// with small segments so tests exercise rolled (sealed) segments.
func integOpen(t *testing.T, root string) (*wal.Log, *Catalog) {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(root, "wal"), Sync: wal.SyncGroup, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	signer, err := integrity.LoadOrCreateSigner(filepath.Join(root, "integrity.ed25519"))
	if err != nil {
		t.Fatalf("LoadOrCreateSigner: %v", err)
	}
	c := New(Config{
		Dir:      filepath.Join(root, "data"),
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		WAL:      w, Signer: signer,
	})
	if err := c.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	return w, c
}

func integInsert(t *testing.T, e *Entry, n, base int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(base + i))}, ""); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

// TestIntegrityProofsAndRestartParity proves the write path, boot-time
// replay, and snapshot seeding all agree on the leaf sequence: proofs
// verify against signed roots, and an abrupt restart (snapshot covering
// part of the history, WAL replay the rest) reproduces the same tree.
func TestIntegrityProofsAndRestartParity(t *testing.T) {
	root := t.TempDir()
	w, c := integOpen(t, root)
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	integInsert(t, e, 10, 100)

	st := e.IntegrityState()
	if !st.Tracked || st.Size != 11 { // create frame + 10 inserts
		t.Fatalf("state = %+v, want tracked size 11", st)
	}
	pub := c.cfg.Signer.Public()
	if !integrity.VerifyRoot(pub, st.Signed) {
		t.Fatal("signed root does not verify")
	}

	leaf, incl, signed, err := e.InclusionProof(3)
	if err != nil {
		t.Fatalf("InclusionProof: %v", err)
	}
	if !integrity.VerifyRoot(pub, signed) {
		t.Fatal("inclusion proof's signed root does not verify")
	}
	if !integrity.VerifyInclusion(leaf, 3, signed.Size, incl.Hashes, signed.Root) {
		t.Fatal("inclusion proof rejected")
	}
	if integrity.VerifyInclusion(leaf, 4, signed.Size, incl.Hashes, signed.Root) {
		t.Fatal("inclusion proof verified at the wrong index")
	}

	// Anchor the current (size, root), grow the history, and prove the new
	// tree extends the anchor: the append-only guarantee a client checks.
	anchorSize, anchorRoot := st.Size, st.Root
	integInsert(t, e, 5, 200)
	cons, _, signed2, err := e.ConsistencyProof(anchorSize)
	if err != nil {
		t.Fatalf("ConsistencyProof: %v", err)
	}
	if signed2.Size != anchorSize+5 {
		t.Fatalf("new size = %d, want %d", signed2.Size, anchorSize+5)
	}
	if !integrity.VerifyConsistency(anchorSize, signed2.Size, anchorRoot, signed2.Root, cons.Hashes) {
		t.Fatal("consistency proof rejected")
	}

	// Snapshot part of the history, mutate past it, then stop abruptly: the
	// reboot seeds the tree from the shard and replays the tail.
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	integInsert(t, e, 4, 300)
	want := e.IntegrityState()

	w2, c2 := integOpen(t, root)
	defer w2.Close()
	e2, err := c2.Get("emp")
	if err != nil {
		t.Fatalf("Get after reboot: %v", err)
	}
	got := e2.IntegrityState()
	if got.Size != want.Size || got.Root != want.Root {
		t.Fatalf("restart changed the tree: got (%d, %x), want (%d, %x)",
			got.Size, got.Root, want.Size, want.Root)
	}
	// A consistency proof across the restart still verifies against the
	// pre-restart anchor.
	cons2, _, signed3, err := e2.ConsistencyProof(anchorSize)
	if err != nil {
		t.Fatalf("ConsistencyProof after restart: %v", err)
	}
	if !integrity.VerifyConsistency(anchorSize, signed3.Size, anchorRoot, signed3.Root, cons2.Hashes) {
		t.Fatal("cross-restart consistency proof rejected")
	}
	_ = w.Close()
}

// TestIntegrityQuarantineScoping proves a quarantined relation refuses
// writes (typed ErrReadOnly), keeps serving reads, and leaves every
// other relation fully writable.
func TestIntegrityQuarantineScoping(t *testing.T) {
	root := t.TempDir()
	w, c := integOpen(t, root)
	defer w.Close()
	a, err := c.Create(eventSchema("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create(eventSchema("b"))
	if err != nil {
		t.Fatal(err)
	}
	integInsert(t, a, 3, 100)

	a.Quarantine("test damage")
	if _, err := a.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(500)}, ""); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("quarantined insert err = %v, want ErrReadOnly", err)
	}
	if got := len(currentOf(t, a)); got != 3 {
		t.Fatalf("quarantined reads broke: %d elements, want 3", got)
	}
	if _, err := b.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(500)}, ""); err != nil {
		t.Fatalf("unaffected relation refused a write: %v", err)
	}
	a.Unquarantine()
	if _, err := a.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(501)}, ""); err != nil {
		t.Fatalf("unquarantined insert: %v", err)
	}
}

// TestIntegrityRepairRuns corrupts a frozen delta run in place and lets
// the scrub path repair it: detection quarantines the relation, the
// reseal rebuilds the run from the live elements, the quarantine lifts,
// and queries answer exactly as before the damage.
func TestIntegrityRepairRuns(t *testing.T) {
	root := t.TempDir()
	w, c := integOpen(t, root)
	defer w.Close()
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatal(err)
	}
	integInsert(t, e, 700, 100)
	if e.Compact() == 0 {
		t.Fatal("nothing sealed; test needs frozen runs")
	}
	before := len(currentOf(t, e))

	corrupted := false
	_ = e.locked.Exclusive(func(*relation.Relation) error {
		corrupted = storage.CorruptRun(e.engine.Store(), 0, 9, 4)
		return nil
	})
	if !corrupted {
		t.Fatal("could not corrupt run 0")
	}

	rep, err := c.VerifyRelation("emp")
	if err != nil {
		t.Fatalf("VerifyRelation: %v", err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("corruption not detected")
	}
	if rep.Repaired == 0 {
		t.Fatalf("corruption not repaired: %+v", rep)
	}
	if cause := e.QuarantineCause(); cause != "" {
		t.Fatalf("quarantine not lifted after repair: %q", cause)
	}
	if got := len(currentOf(t, e)); got != before {
		t.Fatalf("post-repair answers diverged: %d elements, want %d", got, before)
	}
	st := c.IntegrityStats()
	if st.Detected == 0 || st.Repaired == 0 {
		t.Fatalf("stats did not count the repair: %+v", st)
	}
	if evs := c.IntegrityEvents(); len(evs) < 3 { // detect, quarantine, repair
		t.Fatalf("journal too short: %+v", evs)
	}
}

// TestIntegrityRepairSnapshot flips one byte of a snapshot shard on
// disk: the scrub detects it (shard-level checksums), preserves the
// evidence, rewrites the shard from memory, and re-verifies it.
func TestIntegrityRepairSnapshot(t *testing.T) {
	root := t.TempDir()
	w, c := integOpen(t, root)
	defer w.Close()
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatal(err)
	}
	integInsert(t, e, 8, 100)
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}

	shard := filepath.Join(root, "data", "emp"+fileSuffix)
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := c.VerifyRelation("emp")
	if err != nil {
		t.Fatalf("VerifyRelation: %v", err)
	}
	if len(rep.Failures) == 0 || rep.Repaired == 0 {
		t.Fatalf("shard damage not detected+repaired: %+v", rep)
	}
	if cause := e.QuarantineCause(); cause != "" {
		t.Fatalf("quarantine not lifted: %q", cause)
	}
	if err := c.verifySnapshotShard("emp"); err != nil {
		t.Fatalf("rewritten shard still damaged: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "data", "quarantine", "emp"+fileSuffix)); err != nil {
		t.Fatalf("damaged shard not preserved as evidence: %v", err)
	}
	// The rewritten shard must boot.
	_ = w.Close()
	w2, c2 := integOpen(t, root)
	defer w2.Close()
	e2, err := c2.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(currentOf(t, e2)); got != 8 {
		t.Fatalf("boot from repaired shard lost data: %d elements, want 8", got)
	}
}

// TestIntegrityRepairSegment flips one byte of a sealed WAL segment:
// detection quarantines every relation with history in the segment, the
// repair re-snapshots them from memory (the acked state) and truncates
// the damaged segment away, and the next boot is clean.
func TestIntegrityRepairSegment(t *testing.T) {
	root := t.TempDir()
	w, c := integOpen(t, root)
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatal(err)
	}
	integInsert(t, e, 30, 100)
	segs := w.Segments()
	if len(segs) < 2 {
		t.Fatal("test needs a sealed segment")
	}
	victim := segs[0]
	if victim.Sealed != true {
		t.Fatal("oldest segment not sealed")
	}
	segPath := filepath.Join(root, "wal", victim.Name)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	verr := c.VerifyArtifact(integrity.Artifact{Kind: "wal-segment", Name: victim.Name})
	if verr == nil {
		t.Fatal("segment damage not detected")
	}
	c.HandleCorrupt(integrity.Artifact{Kind: "wal-segment", Name: victim.Name}, verr)
	if isKnownSegment(w, victim.Name) {
		t.Fatal("damaged segment survived the repair")
	}
	if cause := e.QuarantineCause(); cause != "" {
		t.Fatalf("quarantine not lifted: %q", cause)
	}
	if w.Stats().VerifyFailures == 0 {
		t.Fatal("wal verify-failure counter did not move")
	}
	if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(900)}, ""); err != nil {
		t.Fatalf("post-repair insert: %v", err)
	}
	_ = w.Close()

	w2, c2 := integOpen(t, root)
	defer w2.Close()
	e2, err := c2.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(currentOf(t, e2)); got != 31 {
		t.Fatalf("boot after segment repair lost data: %d elements, want 31", got)
	}
}

// TestIntegrityScrubberEndToEnd runs the wired scrubber over a healthy
// catalog (no false positives), then over one with a corrupt frozen run
// (detected, repaired), then proves a second pass is clean again.
func TestIntegrityScrubberEndToEnd(t *testing.T) {
	root := t.TempDir()
	w, c := integOpen(t, root)
	defer w.Close()
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatal(err)
	}
	integInsert(t, e, 700, 100)
	if e.Compact() == 0 {
		t.Fatal("nothing sealed")
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}

	s := c.NewScrubber(0)
	checked, failed, err := s.RunOnce(context.Background())
	if err != nil || failed != 0 {
		t.Fatalf("clean pass: checked=%d failed=%d err=%v", checked, failed, err)
	}
	if checked == 0 {
		t.Fatal("scrubber found no artifacts")
	}

	_ = e.locked.Exclusive(func(*relation.Relation) error {
		storage.CorruptRun(e.engine.Store(), 0, 5, 1)
		return nil
	})
	_, failed, err = s.RunOnce(context.Background())
	if err != nil || failed != 1 {
		t.Fatalf("damage pass: failed=%d err=%v, want 1 failure", failed, err)
	}
	_, failed, err = s.RunOnce(context.Background())
	if err != nil || failed != 0 {
		t.Fatalf("post-repair pass: failed=%d err=%v", failed, err)
	}
}

// TestIntegrityScrubCursorResume kills a scrub mid-pass (context
// cancellation after the first artifact) and proves a fresh scrubber —
// the restart — resumes from the persisted cursor instead of starting
// over, then clears it after the completed pass.
func TestIntegrityScrubCursorResume(t *testing.T) {
	root := t.TempDir()
	w, c := integOpen(t, root)
	defer w.Close()
	for _, name := range []string{"a", "b", "c"} {
		e, err := c.Create(eventSchema(name))
		if err != nil {
			t.Fatal(err)
		}
		integInsert(t, e, 3, 100)
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	arts, err := c.ScrubArtifacts()
	if err != nil || len(arts) < 3 {
		t.Fatalf("artifacts = %d err=%v, want >= 3", len(arts), err)
	}

	cursor := filepath.Join(root, "data", "scrub.cursor")
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	interrupted := integrity.NewScrubber(integrity.ScrubberConfig{
		List: c.ScrubArtifacts,
		Verify: func(a integrity.Artifact) error {
			if n++; n == 2 {
				cancel() // the kill lands mid-pass, after artifact 2 persists
			}
			return c.VerifyArtifact(a)
		},
		OnCorrupt:  c.HandleCorrupt,
		CursorPath: cursor,
	})
	if _, _, err := interrupted.RunOnce(ctx); err == nil {
		t.Fatal("interrupted pass reported success")
	}
	if _, err := os.Stat(cursor); err != nil {
		t.Fatalf("cursor not persisted across the kill: %v", err)
	}

	resumed := c.NewScrubber(0)
	checked, failed, err := resumed.RunOnce(context.Background())
	if err != nil || failed != 0 {
		t.Fatalf("resumed pass: checked=%d failed=%d err=%v", checked, failed, err)
	}
	if checked != len(arts)-2 {
		t.Fatalf("resumed pass checked %d artifacts, want %d (resume after cursor)", checked, len(arts)-2)
	}
	if _, err := os.Stat(cursor); !os.IsNotExist(err) {
		t.Fatalf("cursor not cleared after a full pass: %v", err)
	}
}
