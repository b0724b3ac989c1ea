package server_test

// Chaos acceptance for the resilience layer, end to end over the wire:
//
// Phase 1 — connection resets mid-traffic: a flaky transport drops every
// Nth successful insert response after the server has applied and acked
// it. The retrying client replays each dropped mutation under its
// idempotency key; every insert must eventually succeed and the relation
// must hold exactly one element per acked insert (dedup, not re-apply).
//
// Phase 2 — WAL poisoning under load: an injected I/O fault poisons the
// log. Mutations fail typed "read_only", reads keep serving, /healthz
// reports degraded, /readyz goes 503, /metrics exports the degraded
// gauge.
//
// Phase 3 — recovery: the process "restarts" (ErrFS drops unsynced
// bytes), the catalog reboots from the WAL alone, and the surviving
// history equals the acked set exactly — every acknowledged element
// present and current, nothing unacknowledged visible — and a replayed
// idempotency key still returns the original element.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// flakyTransport forwards requests and, when enabled, drops every Nth
// successful insert response on the floor — the server has applied and
// acked the mutation, but the client sees a connection reset.
type flakyTransport struct {
	rt    http.RoundTripper
	every int

	mu    sync.Mutex
	on    bool
	n     int
	drops int
}

func (f *flakyTransport) enable(on bool) {
	f.mu.Lock()
	f.on = on
	f.mu.Unlock()
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.rt.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/insert") {
		return resp, err
	}
	f.mu.Lock()
	drop := false
	if f.on && resp.StatusCode < 300 {
		f.n++
		drop = f.n%f.every == 0
		if drop {
			f.drops++
		}
	}
	f.mu.Unlock()
	if drop {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: connection reset after server ack")
	}
	return resp, nil
}

// rawKeyedInsert issues an insert with an explicit idempotency key,
// bypassing the client's auto-generated keys so the test can replay the
// exact key later — including across the recovery reboot.
func rawKeyedInsert(t *testing.T, base, rel, key string, req client.InsertRequest) wire.Element {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/relations/"+rel+"/insert", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(wire.HeaderIdempotencyKey, key)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("keyed insert: %v", err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.Fatalf("keyed insert: http %d: %s", resp.StatusCode, payload)
	}
	var out wire.ElementResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("keyed insert decode: %v", err)
	}
	return out.Element
}

func TestChaosIdempotentRetryPoisonAndRecovery(t *testing.T) {
	fs := wal.NewErrFS()
	newWAL := func() *wal.Log {
		t.Helper()
		w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways, SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		return w
	}
	newCat := func(w *wal.Log) *catalog.Catalog {
		t.Helper()
		c := catalog.New(catalog.Config{
			NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
			WAL:      w,
		})
		if err := c.Open(); err != nil {
			t.Fatalf("catalog.Open: %v", err)
		}
		return c
	}

	boot := func(cat *catalog.Catalog) (string, *http.Server) {
		t.Helper()
		srv := server.New(server.Config{Catalog: cat})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		return "http://" + ln.Addr().String(), hs
	}

	w := newWAL()
	cat := newCat(w)
	base, hs := boot(cat)

	flaky := &flakyTransport{rt: http.DefaultTransport, every: 5}
	cli := client.New(base,
		client.WithHTTPClient(&http.Client{Transport: flaky, Timeout: 30 * time.Second}),
		client.WithRetry(client.RetryPolicy{
			MaxAttempts: 5,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
			Budget:      10 * time.Second,
		}))
	ctx := context.Background()

	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Phase 1: concurrent keyed inserts through connection resets.
	const workers, perWorker = 4, 25
	var mu sync.Mutex
	acked := make(map[uint64]int64) // ES -> vt
	flaky.enable(true)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				vt := int64(1000 + g*perWorker + i)
				el, err := cli.Insert(ctx, "emp", insertReq(vt, fmt.Sprintf("w%d-%d", g, i), vt))
				if err != nil {
					t.Errorf("worker %d insert %d: %v", g, i, err)
					return
				}
				mu.Lock()
				acked[el.ES] = vt
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	flaky.enable(false)
	if t.Failed() {
		t.FailNow()
	}
	if len(acked) != workers*perWorker {
		t.Fatalf("acked %d distinct elements, want %d (duplicate ES would mean re-apply)",
			len(acked), workers*perWorker)
	}
	flaky.mu.Lock()
	drops := flaky.drops
	flaky.mu.Unlock()
	if drops == 0 {
		t.Fatal("flaky transport dropped nothing; phase 1 exercised no retries")
	}

	// One insert under a caller-chosen key, replayed immediately: the
	// wire-level dedup must return the original element verbatim.
	manual := rawKeyedInsert(t, base, "emp", "chaos-manual-1", insertReq(5000, "manual", 1))
	replayed := rawKeyedInsert(t, base, "emp", "chaos-manual-1", insertReq(5000, "manual", 1))
	if replayed.ES != manual.ES || replayed.TTStart != manual.TTStart {
		t.Fatalf("wire replay returned %+v, want original %+v", replayed, manual)
	}
	acked[manual.ES] = 5000

	q, err := cli.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("Current after phase 1: %v", err)
	}
	if len(q.Elements) != len(acked) {
		t.Fatalf("server holds %d current elements, want %d acked (retries must dedup)",
			len(q.Elements), len(acked))
	}

	// Phase 2: poison the WAL at the next file operation.
	fs.FailAt(1, wal.FaultError)
	if _, err := cli.Insert(ctx, "emp", insertReq(6000, "poison", 1)); err == nil {
		t.Fatal("poisoning insert succeeded")
	}
	if _, err := cli.Insert(ctx, "emp", insertReq(6001, "after", 1)); !client.IsReadOnly(err) {
		t.Fatalf("mutation on poisoned server = %v, want typed read_only", err)
	}
	if err := cli.Delete(ctx, "emp", manual.ES); !client.IsReadOnly(err) {
		t.Fatalf("delete on poisoned server = %v, want typed read_only", err)
	}
	q, err = cli.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if len(q.Elements) != len(acked) {
		t.Fatalf("degraded read sees %d elements, want %d", len(q.Elements), len(acked))
	}
	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatalf("Health degraded: %v", err)
	}
	if h.Status != "degraded" || !h.ReadOnly || h.WAL == "" {
		t.Fatalf("health = %+v, want degraded read-only with cause", h)
	}
	rr, err := cli.Ready(ctx)
	if err != nil {
		t.Fatalf("Ready degraded: %v", err)
	}
	if rr.Ready || rr.Status != "degraded" {
		t.Fatalf("ready = %+v, want not-ready degraded", rr)
	}
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics degraded: %v", err)
	}
	if m.Degraded == nil || !m.Degraded.ReadOnly || m.Degraded.Cause == "" {
		t.Fatalf("metrics degraded gauge = %+v, want read-only with cause", m.Degraded)
	}

	// Phase 3: restart. The ErrFS reboot drops whatever was never
	// fsynced; recovery replays the WAL alone (no snapshots were taken).
	// Close the clients' pooled keep-alive connections first so Shutdown
	// does not wait on an idle-but-marked-active conn under load.
	http.DefaultClient.CloseIdleConnections()
	if tr, ok := flaky.rt.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	fs.CrashRecover()
	w2 := newWAL()
	cat2 := newCat(w2)
	e2, err := cat2.Get("emp")
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	res, err := e2.CurrentCtx(context.Background())
	if err != nil {
		t.Fatalf("CurrentCtx after recovery: %v", err)
	}
	cur := res.Elements
	if len(cur) != len(acked) {
		t.Fatalf("recovered %d current elements, want %d acked", len(cur), len(acked))
	}
	for _, el := range cur {
		vt, ok := acked[uint64(el.ES)]
		if !ok {
			t.Fatalf("recovered element %v was never acked", el.ES)
		}
		if int64(el.VT.Start()) != vt {
			t.Fatalf("element %v recovered vt %v, want %v", el.ES, el.VT.Start(), vt)
		}
	}

	// The dedup window replayed with the history: the caller-chosen key
	// still returns the original element on the rebooted server.
	base2, hs2 := boot(cat2)
	defer func() {
		shutCtx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		hs2.Shutdown(shutCtx2)
	}()
	replayed2 := rawKeyedInsert(t, base2, "emp", "chaos-manual-1", insertReq(5000, "manual", 1))
	if replayed2.ES != manual.ES || replayed2.TTStart != manual.TTStart {
		t.Fatalf("post-recovery replay returned %+v, want original %+v", replayed2, manual)
	}
	cli2 := client.New(base2)
	q2, err := cli2.Current(ctx, "emp")
	if err != nil {
		t.Fatalf("Current after recovery: %v", err)
	}
	if len(q2.Elements) != len(acked) {
		t.Fatalf("post-recovery replay grew history to %d elements, want %d",
			len(q2.Elements), len(acked))
	}
}
