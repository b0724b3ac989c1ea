package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// spanHeader carries a request's operation id from the client-side
// transport to the server-side handler wrapper.
const spanHeader = "X-Tsbench-Span"

// span is one timed interval at a layer boundary. Spans of one operation
// share ID; Parent names the enclosing layer's span.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	// active gates recording to the measured phases.
	active atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) record(s span) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records a span named name around fn.
func (t *tracer) timed(id uint64, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(span{ID: id, Name: name, Parent: parent, Start: t.since(start), End: t.since(end)})
	return end.Sub(start)
}

// byName groups the recorded spans by name.
func (t *tracer) byName() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type opKey struct{}

// withOp tags ctx with an operation id the transport forwards.
func withOp(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, opKey{}, id)
}

// classOf names the operation class of a request path.
func classOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/query"):
		return "read"
	case path == "/v1/select":
		return "agg"
	case strings.HasSuffix(path, "/elements:batch"):
		return "batch"
	case strings.HasSuffix(path, "/insert"), strings.HasSuffix(path, "/delete"), strings.HasSuffix(path, "/modify"):
		return "write"
	case strings.HasPrefix(path, "/v1/repl/"):
		return "repl"
	}
	return "other"
}

// timedTransport records an "http.<class>" span per request, from the
// round trip's start until the response body is read to its end, and
// forwards the operation id so the server span joins it.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := req.Context().Value(opKey{}).(uint64)
	if !ok {
		id = t.tr.newID()
	}
	r2 := req.Clone(req.Context())
	r2.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	class := classOf(req.URL.Path)
	start := time.Now()
	resp, err := t.base.RoundTrip(r2)
	if err != nil {
		t.tr.record(span{ID: id, Name: "http." + class, Parent: "client." + class, Start: t.tr.since(start), End: t.tr.since(time.Now())})
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) {
		t.tr.record(span{ID: id, Name: "http." + class, Parent: "client." + class,
			Start: t.tr.since(start), End: t.tr.since(time.Now()), Bytes: n})
	}}
	return resp, nil
}

// spanBody ends its span when the body reaches EOF, or at Close.
type spanBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// traceHandler records a "server.<class>" span around the server handler,
// with the response bytes it wrote.
func traceHandler(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
			if err != nil {
				id = tr.newID()
			}
			class := classOf(r.URL.Path)
			cw := &countingWriter{ResponseWriter: w}
			start := time.Now()
			h.ServeHTTP(cw, r)
			tr.record(span{ID: id, Name: "server." + class, Parent: "http." + class,
				Start: tr.since(start), End: tr.since(time.Now()), Bytes: cw.n})
		})
	}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// timedFS wraps the WAL's file system: it records a "wal.sync" span per
// fsync and counts the bytes the log writes.
type timedFS struct {
	wal.FS
	tr    *tracer
	bytes atomic.Int64
}

func (f *timedFS) Create(name string) (wal.File, error) {
	fl, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f}, nil
}

func (f *timedFS) OpenAppend(name string, size int64) (wal.File, error) {
	fl, err := f.FS.OpenAppend(name, size)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f}, nil
}

type timedFile struct {
	wal.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	var err error
	f.fs.tr.timed(f.fs.tr.newID(), "wal.sync", "catalog.commit", func() { err = f.File.Sync() })
	return err
}
