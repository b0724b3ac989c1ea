package server_test

// Cluster acceptance: one WAL-backed primary and two followers tailing
// its replication feed over real loopback HTTP. Writes land on the
// primary, show up on both followers with an explicit staleness bound,
// mutations against a follower fail typed, and the fan-out router pins
// each relation to a stable owner while serving multi-relation SELECTs
// concurrently. The chaos variant kills a follower mid-stream, keeps
// writing, and verifies the restarted follower converges — dedup window
// included — from its persisted watermarks.

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// bootPrimary starts a WAL-backed server rooted at dir and returns its
// base URL alongside the catalog (for durable-LSN introspection).
func bootPrimary(t *testing.T, dir string) (string, *catalog.Catalog, func()) {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cat := catalog.New(catalog.Config{
		Dir:      filepath.Join(dir, "data"),
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		WAL:      w,
	})
	if err := cat.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	srv := server.New(server.Config{Catalog: cat})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		if err := cat.Close(); err != nil {
			t.Errorf("primary catalog.Close: %v", err)
		}
	}
	return "http://" + ln.Addr().String(), cat, stop
}

// follower bundles one replica's moving parts for a test.
type follower struct {
	url  string
	cat  *catalog.Catalog
	fol  *repl.Follower
	stop func()
}

// bootFollower starts a read-only replica rooted at dir, tailing
// primary. Its catalog persists to dir so a restart resumes from the
// snapshotted watermarks, exactly as tsdbd -follow does.
func bootFollower(t *testing.T, dir, primary string) *follower {
	t.Helper()
	cat := catalog.New(catalog.Config{
		Dir:      dir,
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		Follower: true,
	})
	if err := cat.Open(); err != nil {
		t.Fatalf("follower catalog.Open: %v", err)
	}
	fol := repl.NewFollower(repl.FollowerConfig{
		Primary: primary, Catalog: cat,
		Wait: 25 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()
	srv := server.New(server.Config{Catalog: cat, Follower: fol})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		cancel()
		<-done
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = hs.Shutdown(sctx)
		if err := cat.Close(); err != nil {
			t.Errorf("follower catalog.Close: %v", err)
		}
	}
	return &follower{url: "http://" + ln.Addr().String(), cat: cat, fol: fol, stop: stop}
}

func namedSchema(name string) client.Schema {
	s := empSchema()
	s.Name = name
	return s
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClusterE2EReplicatedReadsAndRouting(t *testing.T) {
	ctx := context.Background()
	purl, pcat, pstop := bootPrimary(t, t.TempDir())
	defer pstop()
	pcli := client.New(purl)

	rels := []string{"emp", "dept", "proj"}
	for _, rel := range rels {
		if _, err := pcli.Create(ctx, namedSchema(rel)); err != nil {
			t.Fatalf("create %s: %v", rel, err)
		}
	}
	for i, rel := range rels {
		for j := 0; j <= i; j++ { // emp: 1 row, dept: 2, proj: 3
			if _, err := pcli.Insert(ctx, rel, insertReq(int64(100+10*j), "w", int64(1000*(j+1)))); err != nil {
				t.Fatalf("insert %s: %v", rel, err)
			}
		}
	}
	durable := pcat.WAL().DurableLSN()

	f1 := bootFollower(t, t.TempDir(), purl)
	defer f1.stop()
	f2 := bootFollower(t, t.TempDir(), purl)
	defer f2.stop()

	for _, f := range []*follower{f1, f2} {
		fcli := client.New(f.url)
		waitUntil(t, "follower ready", func() bool {
			r, err := fcli.Ready(ctx)
			return err == nil && r.Ready
		})
		waitUntil(t, "follower caught up", func() bool {
			return f.fol.Stats().AppliedLSN >= durable
		})

		// Every relation written on the primary is readable here, and the
		// response carries the explicit staleness bound.
		for i, rel := range rels {
			q, err := fcli.Current(ctx, rel)
			if err != nil {
				t.Fatalf("follower Current(%s): %v", rel, err)
			}
			if len(q.Elements) != i+1 {
				t.Fatalf("follower Current(%s) = %d elements, want %d", rel, len(q.Elements), i+1)
			}
		}
		resp, err := http.Get(f.url + "/healthz")
		if err != nil {
			t.Fatalf("follower healthz: %v", err)
		}
		resp.Body.Close()
		if resp.Header.Get(wire.HeaderStaleness) == "" {
			t.Fatalf("follower response carries no %s header", wire.HeaderStaleness)
		}
		h, err := fcli.Health(ctx)
		if err != nil {
			t.Fatalf("follower Health: %v", err)
		}
		if h.Role != "follower" || !h.ReadOnly {
			t.Fatalf("follower health = role %q read_only %v, want follower/true", h.Role, h.ReadOnly)
		}

		// Mutations are refused with the typed read-only error, both DML
		// and DDL.
		if _, err := fcli.Insert(ctx, "emp", insertReq(999, "x", 1)); !client.IsReadOnly(err) {
			t.Fatalf("follower insert err = %v, want read_only", err)
		}
		if _, err := fcli.Create(ctx, namedSchema("sneaky")); !client.IsReadOnly(err) {
			t.Fatalf("follower create err = %v, want read_only", err)
		}

		// Replication gauges are exposed.
		m, err := fcli.Metrics(ctx)
		if err != nil {
			t.Fatalf("follower Metrics: %v", err)
		}
		if m.Replication == nil || m.Replication.Role != "follower" || !m.Replication.Synced {
			t.Fatalf("follower metrics replication = %+v, want synced follower", m.Replication)
		}
	}

	if h, err := pcli.Health(ctx); err != nil || h.Role != "primary" {
		t.Fatalf("primary health role = %q (%v), want primary", h.Role, err)
	}
	if m, err := pcli.Metrics(ctx); err != nil || m.Replication == nil || m.Replication.TailRequests == 0 {
		t.Fatalf("primary metrics = %+v (%v), want tail traffic booked", m.Replication, err)
	}

	// Router: relation ownership is deterministic across instances, reads
	// pin to the owner, and a 3-relation fan-out merges in input order.
	r := client.NewRouter(purl, []string{f1.url, f2.url}, client.WithMaxStaleness(5*time.Second))
	r2 := client.NewRouter(purl, []string{f1.url, f2.url})
	nodes := map[string]bool{purl: true, f1.url: true, f2.url: true}
	for _, rel := range rels {
		own := r.Owner(rel)
		if !nodes[own] {
			t.Fatalf("Owner(%s) = %q, not a cluster node", rel, own)
		}
		if own != r2.Owner(rel) {
			t.Fatalf("Owner(%s) differs across router instances: %q vs %q", rel, own, r2.Owner(rel))
		}
	}
	queries := []string{
		"SELECT name FROM emp",
		"SELECT name FROM dept",
		"SELECT name FROM proj",
	}
	out, err := r.FanOut(ctx, queries)
	if err != nil {
		t.Fatalf("FanOut: %v", err)
	}
	for i := range queries {
		if len(out[i].Rows) != i+1 {
			t.Fatalf("FanOut[%d] = %d rows, want %d", i, len(out[i].Rows), i+1)
		}
	}
	// Routed single-relation reads and mutations work through the same
	// handle: the write goes to the primary, the read to the owner.
	if _, err := r.Insert(ctx, "emp", insertReq(500, "via-router", 9000)); err != nil {
		t.Fatalf("router Insert: %v", err)
	}
	waitUntil(t, "routed write visible", func() bool {
		q, err := r.Query(ctx, "emp", client.QueryRequest{Kind: client.QueryCurrent})
		return err == nil && len(q.Elements) == 2
	})
}

// TestChaosFollowerCatchUp kills a follower's tail loop mid-stream,
// keeps writing on the primary (including a keyed insert), then restarts
// the follower from its persisted snapshots and verifies it converges:
// same current rows as the acked primary state, the idempotency key
// present in the rebuilt dedup window, and no double-applied frames.
func TestChaosFollowerCatchUp(t *testing.T) {
	ctx := context.Background()
	purl, pcat, pstop := bootPrimary(t, t.TempDir())
	defer pstop()
	pcli := client.New(purl)

	if _, err := pcli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, vt := range []int64{100, 110, 120} {
		if _, err := pcli.Insert(ctx, "emp", insertReq(vt, "pre", 1000)); err != nil {
			t.Fatalf("insert vt=%d: %v", vt, err)
		}
	}

	fdir := t.TempDir()
	f := bootFollower(t, fdir, purl)
	waitUntil(t, "first catch-up", func() bool {
		return f.fol.Stats().AppliedLSN >= pcat.WAL().DurableLSN()
	})
	applied := f.fol.Stats().AppliedLSN

	// Kill the follower mid-stream: stop() cancels the tail loop and
	// Close snapshots the catalog — the crash-consistent state a real
	// follower flushes on SIGTERM (a kill -9 would just resume from the
	// last periodic snapshot's lower watermark; replay is idempotent
	// either way).
	f.stop()

	// The primary keeps going while the follower is down.
	const idemKey = "chaos-catchup-key"
	for _, vt := range []int64{200, 210} {
		if _, err := pcli.Insert(ctx, "emp", insertReq(vt, "during", 2000)); err != nil {
			t.Fatalf("insert vt=%d: %v", vt, err)
		}
	}
	keyed := rawKeyedInsert(t, purl, "emp", idemKey, insertReq(300, "keyed", 3000))
	// Retry of the same key on the primary dedups to the same element.
	if again := rawKeyedInsert(t, purl, "emp", idemKey, insertReq(300, "keyed", 3000)); again.ES != keyed.ES {
		t.Fatalf("primary keyed retry = es %d, want %d", again.ES, keyed.ES)
	}
	durable := pcat.WAL().DurableLSN()

	// Restart from the same directory: the tail resumes from the
	// persisted watermarks, not from zero. They are read from a probe
	// catalog on the directory, because the restarted follower's tail
	// starts advancing its own watermarks as soon as it boots.
	probe := catalog.New(catalog.Config{Dir: fdir, Follower: true})
	if err := probe.Open(); err != nil {
		t.Fatalf("probe catalog.Open: %v", err)
	}
	if resume := probe.ResumeLSN(); resume == 0 || resume > applied {
		t.Fatalf("restarted follower resume lsn = %d, want in (0, %d]", resume, applied)
	}
	f = bootFollower(t, fdir, purl)
	defer f.stop()
	waitUntil(t, "catch-up after restart", func() bool {
		return f.fol.Stats().AppliedLSN >= durable
	})

	fcli := client.New(f.url)
	pq, err := pcli.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("primary Current: %v", err)
	}
	fq, err := fcli.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("follower Current: %v", err)
	}
	if len(fq.Elements) != len(pq.Elements) {
		t.Fatalf("follower converged to %d current elements, primary has %d", len(fq.Elements), len(pq.Elements))
	}

	fe, err := f.cat.Get("emp")
	if err != nil {
		t.Fatalf("follower Get: %v", err)
	}
	if fe.AppliedLSN() != durable {
		t.Fatalf("follower applied lsn = %d, want %d", fe.AppliedLSN(), durable)
	}
	// The dedup window crossed the crash: the key shipped while the
	// follower was down is present after the restart, so a promoted
	// follower would still refuse the duplicate.
	if !fe.HasIdemKey(idemKey) {
		t.Fatal("restarted follower dedup window is missing the shipped idempotency key")
	}
}

// TestClusterE2EBatchFrameReplication proves the batched WAL frame ships
// to followers as-is: one walInsertBatch record per batch on the feed,
// applied all-or-nothing by the follower's shared replay path. Element
// surrogates and the per-element idempotency keys must match the
// primary's exactly — a promoted follower has to dedup the same retries
// the primary would. The second phase lands a batch while the follower
// is down and verifies catch-up replays it whole.
func TestClusterE2EBatchFrameReplication(t *testing.T) {
	ctx := context.Background()
	purl, pcat, pstop := bootPrimary(t, t.TempDir())
	defer pstop()
	pcli := client.New(purl)

	if _, err := pcli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("create: %v", err)
	}

	fdir := t.TempDir()
	f := bootFollower(t, fdir, purl)
	waitUntil(t, "follower tailing", func() bool {
		return f.fol.Stats().AppliedLSN >= pcat.WAL().DurableLSN()
	})

	// A keyed batch and an interleaved single insert, shipped live.
	keys := []string{"bk-1", "bk-2", "bk-3"}
	var res wire.BatchInsertResponse
	if code := postJSON(t, pcli, "/v1/relations/emp/elements:batch", wire.BatchInsertRequest{
		Elements: []wire.InsertRequest{
			insertReq(100, "batch", 1000),
			insertReq(110, "batch", 2000),
			insertReq(120, "batch", 3000),
		},
		Keys: keys,
	}, &res); code != http.StatusCreated {
		t.Fatalf("batch insert: http %d", code)
	}
	if res.Stored != 3 {
		t.Fatalf("batch stored %d, want 3", res.Stored)
	}
	if _, err := pcli.Insert(ctx, "emp", insertReq(130, "single", 4000)); err != nil {
		t.Fatalf("single insert: %v", err)
	}
	durable := pcat.WAL().DurableLSN()
	waitUntil(t, "batch shipped", func() bool {
		return f.fol.Stats().AppliedLSN >= durable
	})

	fcli := client.New(f.url)
	pq, err := pcli.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("primary Current: %v", err)
	}
	fq, err := fcli.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("follower Current: %v", err)
	}
	if len(fq.Elements) != 4 || len(pq.Elements) != 4 {
		t.Fatalf("current = %d on follower / %d on primary, want 4/4", len(fq.Elements), len(pq.Elements))
	}
	ps := map[uint64]bool{}
	for _, el := range pq.Elements {
		ps[uint64(el.ES)] = true
	}
	for _, el := range fq.Elements {
		if !ps[uint64(el.ES)] {
			t.Fatalf("follower element es=%d not present on primary", el.ES)
		}
	}
	fe, err := f.cat.Get("emp")
	if err != nil {
		t.Fatalf("follower Get: %v", err)
	}
	for _, k := range keys {
		if !fe.HasIdemKey(k) {
			t.Fatalf("follower dedup window is missing batch key %q", k)
		}
	}

	// Phase two: batch lands while the follower is down; the restarted
	// tail replays the frame whole from its persisted watermark.
	f.stop()
	var res2 wire.BatchInsertResponse
	if code := postJSON(t, pcli, "/v1/relations/emp/elements:batch", wire.BatchInsertRequest{
		Elements: []wire.InsertRequest{
			insertReq(200, "down", 5000),
			insertReq(210, "down", 6000),
		},
		Keys: []string{"bk-down-1", "bk-down-2"},
	}, &res2); code != http.StatusCreated {
		t.Fatalf("offline batch: http %d", code)
	}
	durable = pcat.WAL().DurableLSN()

	f = bootFollower(t, fdir, purl)
	defer f.stop()
	waitUntil(t, "catch-up after restart", func() bool {
		return f.fol.Stats().AppliedLSN >= durable
	})
	fcli = client.New(f.url)
	fq, err = fcli.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("follower Current after restart: %v", err)
	}
	if len(fq.Elements) != 6 {
		t.Fatalf("restarted follower sees %d current elements, want 6", len(fq.Elements))
	}
	fe, err = f.cat.Get("emp")
	if err != nil {
		t.Fatalf("follower Get after restart: %v", err)
	}
	for _, k := range []string{"bk-down-1", "bk-down-2"} {
		if !fe.HasIdemKey(k) {
			t.Fatalf("restarted follower dedup window is missing %q", k)
		}
	}
}
