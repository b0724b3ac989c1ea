package server_test

// Conditional-read acceptance: the GET query endpoint publishes the
// relation's mutation epoch as an ETag, answers If-None-Match revalidation
// with 304 (no query runs, no body crosses the wire), and a mutation
// changes the validator so stale clients fetch fresh. The typed client's
// QueryCached drives the same protocol end to end, and /metrics exposes
// the result cache's counters.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wire"
)

// bootCachedServer is bootServer with a query-result cache of cacheBytes
// (0 disables it), also returning the base URL for raw requests.
func bootCachedServer(t *testing.T, dir string, cacheBytes int64) (*client.Client, string, func()) {
	t.Helper()
	cat := catalog.New(catalog.Config{
		Dir:        dir,
		NewClock:   func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		CacheBytes: cacheBytes,
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
	base := "http://" + ln.Addr().String()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := cat.Close(); err != nil {
			t.Errorf("catalog.Close: %v", err)
		}
	}
	return client.New(base), base, stop
}

func getWithValidator(t *testing.T, url, inm string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	if inm != "" {
		req.Header.Set(wire.HeaderIfNoneMatch, inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

func TestConditionalGetQuery(t *testing.T) {
	ctx := context.Background()
	c, base, stop := bootCachedServer(t, t.TempDir(), 1<<20)
	defer stop()
	if _, err := c.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Insert(ctx, "emp", insertReq(100, "merrie", 27000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	url := base + "/v1/relations/emp/query?kind=timeslice&vt=100"
	resp := getWithValidator(t, url, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET query = %d: %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get(wire.HeaderETag)
	if etag == "" {
		t.Fatal("GET query carried no ETag")
	}
	if cl := resp.Header.Get("Content-Length"); cl == "" || cl == "0" {
		t.Fatalf("pooled encoder set Content-Length %q", cl)
	}
	var qr wire.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(qr.Elements) != 1 || qr.Epoch == 0 {
		t.Fatalf("body = %d elements, epoch %d", len(qr.Elements), qr.Epoch)
	}

	// Revalidation against an unmutated relation: 304, empty body.
	resp = getWithValidator(t, url, etag)
	notModBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", resp.StatusCode)
	}
	if len(notModBody) != 0 {
		t.Fatalf("304 carried a body: %q", notModBody)
	}

	// A mutation changes the validator: the stale ETag fetches fresh.
	if _, err := c.Insert(ctx, "emp", insertReq(100, "tom", 31000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	resp = getWithValidator(t, url, etag)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation GET = %d", resp.StatusCode)
	}
	if newTag := resp.Header.Get(wire.HeaderETag); newTag == etag || newTag == "" {
		t.Fatalf("ETag did not change across mutation: %q", newTag)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(qr.Elements) != 2 {
		t.Fatalf("post-mutation body = %d elements, want 2", len(qr.Elements))
	}
}

func TestConditionalExplain(t *testing.T) {
	ctx := context.Background()
	c, base, stop := bootCachedServer(t, t.TempDir(), 1<<20)
	defer stop()
	if _, err := c.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Insert(ctx, "emp", insertReq(100, "merrie", 27000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	url := base + "/v1/relations/emp/explain?kind=current"
	resp := getWithValidator(t, url, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get(wire.HeaderETag)
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("explain = %d, etag %q", resp.StatusCode, etag)
	}
	resp = getWithValidator(t, url, etag)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("explain revalidation = %d, want 304", resp.StatusCode)
	}
}

func TestClientQueryCached(t *testing.T) {
	ctx := context.Background()
	c, _, stop := bootCachedServer(t, t.TempDir(), 1<<20)
	defer stop()
	if _, err := c.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Insert(ctx, "emp", insertReq(100, "merrie", 27000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	req := client.QueryRequest{Kind: client.QueryTimeslice, VT: 100}
	first, err := c.QueryCached(ctx, "emp", req)
	if err != nil {
		t.Fatalf("QueryCached: %v", err)
	}
	if first.NotModified || len(first.Elements) != 1 || first.ETag == "" {
		t.Fatalf("first = %+v", first)
	}
	second, err := c.QueryCached(ctx, "emp", req)
	if err != nil {
		t.Fatalf("QueryCached: %v", err)
	}
	if !second.NotModified {
		t.Fatal("repeat QueryCached did not revalidate to 304")
	}
	if len(second.Elements) != 1 {
		t.Fatalf("304 body from local cache = %d elements", len(second.Elements))
	}

	if _, err := c.Insert(ctx, "emp", insertReq(100, "tom", 31000)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	third, err := c.QueryCached(ctx, "emp", req)
	if err != nil {
		t.Fatalf("QueryCached: %v", err)
	}
	if third.NotModified || len(third.Elements) != 2 {
		t.Fatalf("post-mutation = %+v", third)
	}

	// The server's result cache shows up on /metrics.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.QueryCache == nil {
		t.Fatal("metrics carry no query_cache section")
	}
	if m.QueryCache.Capacity != 1<<20 {
		t.Fatalf("query_cache capacity = %d", m.QueryCache.Capacity)
	}
}
