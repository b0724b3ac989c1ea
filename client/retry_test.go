package client

// Retry-layer behavior against scripted httptest servers: typed sheds
// retry with a stable idempotency key, Retry-After floors the backoff,
// read_only and other typed errors do not retry, transport errors retry
// only for keyed mutations and safe reads, and the deadline budget
// header reflects the caller's context.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func fastRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Budget:      5 * time.Second,
	}
}

func writeShed(w http.ResponseWriter, status int, code string) {
	if w.Header().Get(wire.HeaderRetryAfter) == "" {
		w.Header().Set(wire.HeaderRetryAfter, "0")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var eb wire.ErrorBody
	eb.Error.Code = code
	eb.Error.Message = "scripted " + code
	json.NewEncoder(w).Encode(eb)
}

func TestRetryOnOverloadedKeepsIdempotencyKey(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get(wire.HeaderIdempotencyKey))
		n := len(keys)
		mu.Unlock()
		if n < 3 {
			writeShed(w, http.StatusTooManyRequests, wire.CodeOverloaded)
			return
		}
		json.NewEncoder(w).Encode(wire.ElementResponse{Element: wire.Element{ES: 42}})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(fastRetry()))
	el, err := c.Insert(context.Background(), "emp", InsertRequest{})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if el.ES != 42 {
		t.Fatalf("ES = %d, want 42", el.ES)
	}
	if len(keys) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(keys))
	}
	if keys[0] == "" || len(keys[0]) != 32 {
		t.Fatalf("idempotency key %q, want 32 hex chars", keys[0])
	}
	if keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatalf("key changed across retries: %v", keys)
	}
}

func TestNoRetryOnReadOnlyOrConflict(t *testing.T) {
	for _, c := range []struct {
		code   string
		status int
		check  func(error) bool
	}{
		{wire.CodeReadOnly, http.StatusServiceUnavailable, IsReadOnly},
		{wire.CodeConflict, http.StatusConflict, nil},
	} {
		attempts := 0
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			attempts++
			writeShed(w, c.status, c.code)
		}))
		cli := New(ts.URL, WithRetry(fastRetry()))
		_, err := cli.Insert(context.Background(), "emp", InsertRequest{})
		ts.Close()
		if err == nil {
			t.Fatalf("%s: Insert succeeded", c.code)
		}
		if attempts != 1 {
			t.Fatalf("%s: %d attempts, want 1 (not retryable)", c.code, attempts)
		}
		if c.check != nil && !c.check(err) {
			t.Fatalf("%s: predicate rejected %v", c.code, err)
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != c.code {
			t.Fatalf("%s: error = %v", c.code, err)
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		writeShed(w, http.StatusServiceUnavailable, wire.CodeUnavailable)
	}))
	defer ts.Close()
	cli := New(ts.URL, WithRetry(fastRetry()))
	_, err := cli.Current(context.Background(), "emp")
	if !IsUnavailable(err) {
		t.Fatalf("err = %v, want unavailable", err)
	}
	if attempts != 4 {
		t.Fatalf("%d attempts, want MaxAttempts=4", attempts)
	}
}

// failFirstTransport fails the first N round trips at the transport
// layer, then passes through.
type failFirstTransport struct {
	mu    sync.Mutex
	fails int
	calls int
	rt    http.RoundTripper
}

func (f *failFirstTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	fail := f.calls <= f.fails
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("simulated connection reset")
	}
	return f.rt.RoundTrip(r)
}

func TestTransportErrorRetriesKeyedMutationNotCreate(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(wire.ElementResponse{Element: wire.Element{ES: 7}})
	}))
	defer ts.Close()

	// Keyed insert: the transport error is retried and succeeds.
	ft := &failFirstTransport{fails: 1, rt: http.DefaultTransport}
	cli := New(ts.URL, WithRetry(fastRetry()), WithHTTPClient(&http.Client{Transport: ft}))
	if _, err := cli.Insert(context.Background(), "emp", InsertRequest{}); err != nil {
		t.Fatalf("keyed Insert after transport error: %v", err)
	}
	if ft.calls != 2 {
		t.Fatalf("insert made %d calls, want 2", ft.calls)
	}

	// Create carries no idempotency key: a transport error is NOT
	// retried (the relation may exist server-side).
	ft2 := &failFirstTransport{fails: 1, rt: http.DefaultTransport}
	cli2 := New(ts.URL, WithRetry(fastRetry()), WithHTTPClient(&http.Client{Transport: ft2}))
	if _, err := cli2.Create(context.Background(), Schema{Name: "emp"}); err == nil {
		t.Fatal("Create after transport error succeeded; must not be retried")
	}
	if ft2.calls != 1 {
		t.Fatalf("create made %d calls, want 1", ft2.calls)
	}
}

func TestDeadlineHeaderSent(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(wire.HeaderDeadline)
		json.NewEncoder(w).Encode(wire.QueryResponse{})
	}))
	defer ts.Close()
	cli := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := cli.Current(ctx, "emp"); err != nil {
		t.Fatalf("Current: %v", err)
	}
	ms, err := strconv.ParseInt(got, 10, 64)
	if err != nil || ms <= 0 || ms > 2000 {
		t.Fatalf("deadline header = %q, want 0 < ms <= 2000", got)
	}
}

func TestReadyDecodesNotReadyBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(wire.ReadyResponse{
			Ready:   false,
			Status:  "degraded",
			Reasons: []string{"wal poisoned"},
		})
	}))
	defer ts.Close()
	rr, err := New(ts.URL).Ready(context.Background())
	if err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if rr.Ready || rr.Status != "degraded" || len(rr.Reasons) != 1 {
		t.Fatalf("Ready = %+v, want not-ready degraded", rr)
	}
}

func TestRetryAfterFloorsBackoff(t *testing.T) {
	attempts := 0
	var gaps []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		gaps = append(gaps, time.Now())
		if attempts == 1 {
			w.Header().Set(wire.HeaderRetryAfter, "1")
			writeShed(w, http.StatusTooManyRequests, wire.CodeOverloaded)
			return
		}
		json.NewEncoder(w).Encode(wire.QueryResponse{})
	}))
	defer ts.Close()
	cli := New(ts.URL, WithRetry(fastRetry()))
	if _, err := cli.Current(context.Background(), "emp"); err != nil {
		t.Fatalf("Current: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2", attempts)
	}
	if gap := gaps[1].Sub(gaps[0]); gap < time.Second {
		t.Fatalf("retried after %v, want >= 1s (Retry-After floor)", gap)
	}
}

// Conditional reads run under the same retry policy as every other read:
// one shed 503, then the answer on attempt 2.
func TestConditionalReadsRetry(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		body any
		call func(c *Client) error
	}{
		{"QueryCached", wire.QueryResponse{Elements: []wire.Element{{ES: 7}}, Epoch: 3}, func(c *Client) error {
			res, err := c.QueryCached(ctx, "emp", QueryRequest{Kind: QueryTimeslice, VT: 5})
			if err == nil && (len(res.Elements) != 1 || res.ETag != `"emp-3"`) {
				err = fmt.Errorf("answer %+v", res)
			}
			return err
		}},
		{"SelectCached", wire.SelectResponse{Columns: []string{"n"}, Touched: 4}, func(c *Client) error {
			res, err := c.SelectCached(ctx, "emp", "select count(*) from emp group by window(10)")
			if err == nil && (res.Touched != 4 || res.ETag != `"emp-3"`) {
				err = fmt.Errorf("answer %+v", res)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			attempts := 0
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				attempts++
				n := attempts
				mu.Unlock()
				if n == 1 {
					writeShed(w, http.StatusServiceUnavailable, wire.CodeOverloaded)
					return
				}
				w.Header().Set(wire.HeaderETag, `"emp-3"`)
				json.NewEncoder(w).Encode(tc.body)
			}))
			defer ts.Close()
			c := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}))
			if err := tc.call(c); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if attempts != 2 {
				t.Fatalf("server saw %d attempts, want 2", attempts)
			}
		})
	}
}
