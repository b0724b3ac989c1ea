package server_test

// Graceful drain: after Drain() the listener still answers, but new
// requests get a clean typed "unavailable" while requests already past
// the drain check run to completion. After shutdown the reopened catalog
// holds exactly the acknowledged writes.

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/tx"
)

func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cat := catalog.New(catalog.Config{
		Dir:      dir,
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
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
	cli := client.New("http://" + ln.Addr().String())

	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := cli.Insert(ctx, "emp", insertReq(5, "merrie", 27000)); err != nil {
		t.Fatalf("insert before drain: %v", err)
	}

	// Park an insert mid-flight: hold the relation's exclusive lock so
	// the wire request is admitted and blocks inside the catalog, i.e.
	// past the drain check.
	e, err := cat.Get("emp")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	locked := make(chan struct{})
	unlock := make(chan struct{})
	go e.Locked().Exclusive(func(*relation.Relation) error {
		close(locked)
		<-unlock
		return nil
	})
	<-locked

	inflight := make(chan error, 1)
	go func() {
		_, err := cli.Insert(ctx, "emp", insertReq(15, "tom", 31000))
		inflight <- err
	}()
	// Let the in-flight insert reach the lock: once it holds a write
	// admission slot its handler has passed the drain check — it is the
	// "already accepted" work drain must not cut.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m, err := cli.Metrics(ctx)
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		if m.Admission["write"].Inflight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight insert never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain()")
	}

	// New work is refused with a clean typed signal; the listener still
	// answers (no connection error).
	if _, err := cli.Insert(ctx, "emp", insertReq(25, "ann", 5000)); !client.IsUnavailable(err) {
		t.Fatalf("insert during drain = %v, want typed unavailable", err)
	}
	if _, err := cli.Current(ctx, "emp"); !client.IsUnavailable(err) {
		t.Fatalf("query during drain = %v, want typed unavailable", err)
	}
	// Probes stay up so orchestration can watch the drain.
	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatalf("Health during drain: %v", err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("health = %+v, want draining", h)
	}
	rr, err := cli.Ready(ctx)
	if err != nil {
		t.Fatalf("Ready during drain: %v", err)
	}
	if rr.Ready || rr.Status != "draining" {
		t.Fatalf("ready = %+v, want not-ready draining", rr)
	}

	// Release the lock: the in-flight insert completes successfully.
	close(unlock)
	select {
	case err := <-inflight:
		if err != nil {
			t.Fatalf("in-flight insert after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight insert never completed")
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := cat.Close(); err != nil {
		t.Fatalf("catalog.Close: %v", err)
	}

	// Reopen: exactly the two acknowledged inserts survived — the drain
	// neither lost accepted work nor let refused work slip in.
	cat2 := catalog.New(catalog.Config{Dir: dir})
	if err := cat2.Open(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	e2, err := cat2.Get("emp")
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	res, err := e2.CurrentCtx(context.Background())
	if err != nil {
		t.Fatalf("CurrentCtx after reopen: %v", err)
	}
	if got := len(res.Elements); got != 2 {
		t.Fatalf("recovered %d current elements, want 2 acked", got)
	}
}
