// Package server exposes the temporal-specialization engine over HTTP/JSON
// — the network face of tsdbd. It speaks the wire vocabulary of
// internal/wire, resolves relations through the concurrent catalog
// (internal/catalog), and ships the robustness a traffic-bearing surface
// needs: per-request timeouts, a request body size cap, structured error
// responses, panic containment, and a /metrics endpoint with per-endpoint
// request counts, latency summaries, and the storage layer's
// elements-touched accounting.
//
// Endpoints (all JSON):
//
//	GET  /healthz                            liveness probe (ok/degraded/draining)
//	GET  /readyz                             readiness probe (admission + WAL health)
//	GET  /metrics                            request metrics
//	GET  /v1/relations                       list relations
//	POST /v1/relations                       create a relation
//	GET  /v1/relations/{name}                schema, declarations, advice
//	POST /v1/relations/{name}/declare        attach specializations
//	POST /v1/relations/{name}/insert         insert transaction
//	POST /v1/relations/{name}/elements:batch batched insert (one WAL frame, one epoch)
//	POST /v1/ingest/csv                      streaming CSV bulk load (?relation=...)
//	POST /v1/relations/{name}/delete         logical-delete transaction
//	POST /v1/relations/{name}/modify         modify transaction
//	POST /v1/relations/{name}/query          current/timeslice/rollback/asof
//	GET  /v1/relations/{name}/classify       infer specializations
//	GET  /v1/relations/{name}/explain        plan a query without running it
//	POST /v1/select                          raw tsql SELECT (or EXPLAIN SELECT)
//	GET  /v1/relations/{name}/select         cacheable SELECT (?query=..., epoch ETag)
//	POST /v1/snapshot                        flush dirty relations to disk
//	GET  /v1/relations/{name}/integrity      Merkle tree size + signed root
//	GET  /v1/relations/{name}/integrity/proof        inclusion proof (?index=I)
//	GET  /v1/relations/{name}/integrity/consistency  append-only proof (?from=M)
//	POST /v1/relations/{name}/verify         synchronous scrub + repair
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/wire"
)

// Config parameterizes a server.
type Config struct {
	// Catalog is the relation catalog to serve. Required.
	Catalog *catalog.Catalog
	// RequestTimeout bounds one request's handling; 0 means 15s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps a request body; 0 means 1 MiB.
	MaxBodyBytes int64
	// IngestMaxBytes caps the streaming CSV ingest body, which is a bulk
	// load by construction and must not sit under the JSON cap; 0 means
	// 1 GiB.
	IngestMaxBytes int64
	// Admission configures the per-class overload valve (admission.go).
	// The zero value enables it with the class defaults.
	Admission AdmissionConfig
	// Follower, when set, marks this server as a read-only replica: every
	// response carries the X-Tsdbd-Staleness-Ms bound once the follower
	// has synced, /readyz stays not-ready until that first sync, and
	// /metrics reports the applying side of replication.
	Follower *repl.Follower
	// ScrubInterval paces the background integrity scrubber (one full
	// pass per interval, started by RunScrubber); 0 disables it.
	ScrubInterval time.Duration
	// ScrubRate caps scrub read bandwidth in bytes/sec; 0 is unlimited.
	ScrubRate int64
}

// Server is the HTTP face of a catalog.
type Server struct {
	cat     *catalog.Catalog
	metrics *Metrics
	cfg     Config
	handler http.Handler
	adm     *admission
	// streamer serves the WAL-shipping replication feed; nil without a WAL.
	streamer *repl.Streamer
	// scrubber walks sealed artifacts against their checksums; nil when
	// the catalog runs with integrity tracking disabled.
	scrubber *integrity.Scrubber
	// draining flips once at the start of graceful shutdown: in-flight
	// requests complete, new non-probe requests get a clean "unavailable".
	draining atomic.Bool
	// CSV-ingest flush-reason counters (ingest.go): batches flushed on
	// the size cap, the time cap, and end of stream.
	ingFlushSize atomic.Uint64
	ingFlushTime atomic.Uint64
	ingFlushEOF  atomic.Uint64
}

// New builds a server over the catalog.
func New(cfg Config) *Server {
	if cfg.Catalog == nil {
		panic("server: nil catalog")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.IngestMaxBytes <= 0 {
		cfg.IngestMaxBytes = 1 << 30
	}
	s := &Server{cat: cfg.Catalog, metrics: NewMetrics(), cfg: cfg}
	s.adm = newAdmission(cfg.Admission)
	if w := cfg.Catalog.WAL(); w != nil {
		s.streamer = repl.NewStreamer(w)
	}
	if cfg.Catalog.IntegrityEnabled() {
		s.scrubber = cfg.Catalog.NewScrubber(cfg.ScrubRate)
	}

	// classProbe marks endpoints that bypass admission and draining: an
	// overloaded or shutting-down server must still answer probes.
	const classProbe = AdmissionClass(-1)

	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.wrap("health", classProbe, s.handleHealth))
	mux.Handle("GET /readyz", s.wrap("ready", classProbe, s.handleReady))
	mux.Handle("GET /metrics", s.wrap("metrics", classProbe, s.handleMetrics))
	mux.Handle("GET /v1/relations", s.wrap("list", ClassRead, s.handleList))
	mux.Handle("POST /v1/relations", s.wrap("create", ClassWrite, s.handleCreate))
	mux.Handle("GET /v1/relations/{name}", s.wrap("info", ClassRead, s.handleInfo))
	mux.Handle("POST /v1/relations/{name}/declare", s.wrap("declare", ClassWrite, s.handleDeclare))
	mux.Handle("POST /v1/relations/{name}/insert", s.wrap("insert", ClassWrite, s.handleInsert))
	mux.Handle("POST /v1/relations/{name}/elements:batch",
		s.wrapOpts("insert_batch", ClassWrite, endpointOpts{weight: batchWeight}, s.handleInsertBatch))
	mux.Handle("POST /v1/ingest/csv",
		s.wrapOpts("ingest_csv", ClassWrite, endpointOpts{weight: batchWeight, bodyCap: cfg.IngestMaxBytes}, s.handleIngestCSV))
	mux.Handle("POST /v1/relations/{name}/delete", s.wrap("delete", ClassWrite, s.handleDelete))
	mux.Handle("POST /v1/relations/{name}/modify", s.wrap("modify", ClassWrite, s.handleModify))
	mux.Handle("POST /v1/relations/{name}/query", s.wrap("query", ClassRead, s.handleQuery))
	mux.Handle("GET /v1/relations/{name}/query", s.wrap("query", ClassRead, s.handleQuery))
	mux.Handle("GET /v1/relations/{name}/classify", s.wrap("classify", ClassRead, s.handleClassify))
	mux.Handle("GET /v1/relations/{name}/explain", s.wrap("explain", ClassRead, s.handleExplain))
	mux.Handle("POST /v1/select", s.wrap("select", ClassRead, s.handleSelect))
	mux.Handle("GET /v1/relations/{name}/select", s.wrap("select", ClassRead, s.handleSelect))
	mux.Handle("POST /v1/snapshot", s.wrap("snapshot", ClassAdmin, s.handleSnapshot))
	mux.Handle("GET /v1/relations/{name}/integrity", s.wrap("integrity", ClassRead, s.handleIntegrity))
	mux.Handle("GET /v1/relations/{name}/integrity/proof", s.wrap("integrity_proof", ClassRead, s.handleIntegrityProof))
	mux.Handle("GET /v1/relations/{name}/integrity/consistency", s.wrap("integrity_consistency", ClassRead, s.handleIntegrityConsistency))
	mux.Handle("POST /v1/relations/{name}/verify", s.wrap("verify", ClassAdmin, s.handleVerify))
	// Replication is infrastructure traffic: a follower must keep catching
	// up while the primary sheds client load or drains for shutdown, so
	// the feed rides the probe class.
	mux.Handle("GET /v1/repl/segments", s.wrap("repl_segments", classProbe, s.handleReplSegments))
	mux.Handle("GET /v1/repl/tail", s.wrap("repl_tail", classProbe, s.handleReplTail))
	mux.Handle("/", s.wrap("unknown", classProbe, func(*http.Request) (*response, *apiError) {
		return nil, errNotFound("no such endpoint")
	}))

	timeoutBody, _ := json.Marshal(wire.ErrorBody{Error: wire.ErrorDetail{
		Code: wire.CodeInternal, Message: "request timed out",
	}})
	s.handler = http.TimeoutHandler(mux, cfg.RequestTimeout, string(timeoutBody))
	return s
}

// Handler returns the fully wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain flips the server into graceful-shutdown mode: requests already
// executing run to completion, while every new non-probe request is
// refused with a typed "unavailable" (503 + Retry-After) instead of a
// hung or reset connection. Call it before http.Server.Shutdown so the
// listener keeps accepting long enough to answer cleanly.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// response is a handler's successful answer.
type response struct {
	status  int // 0 means 200
	body    any
	touched int // elements-touched accounting for metrics
	// etag, when set, is the response's cache validator (the relation's
	// mutation epoch). A status of 304 sends it with no body.
	etag string
}

// apiError is a handler failure with its HTTP mapping.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.message }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf(format, args...)}
}
func errNotFound(format string, args ...any) *apiError {
	return &apiError{http.StatusNotFound, wire.CodeNotFound, fmt.Sprintf(format, args...)}
}
func errUnavailable(format string, args ...any) *apiError {
	return &apiError{http.StatusServiceUnavailable, wire.CodeUnavailable, fmt.Sprintf(format, args...)}
}
func errOverloaded(format string, args ...any) *apiError {
	return &apiError{http.StatusTooManyRequests, wire.CodeOverloaded, fmt.Sprintf(format, args...)}
}

// mapError classifies an engine or catalog error into its HTTP form.
// Transactions rejected by a declared specialization are a normal outcome
// under enforcement — they map to 409 with the distinct "rejected" code so
// clients can tell a violation from a concurrency conflict. A poisoned
// WAL maps to 503 "read_only" (mutations are refused until restart), and
// a caller whose deadline expired mid-request gets 503 "unavailable".
func mapError(err error) *apiError {
	switch {
	case errors.Is(err, catalog.ErrReadOnly):
		return &apiError{http.StatusServiceUnavailable, wire.CodeReadOnly, err.Error()}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return errUnavailable("request abandoned: %s", err.Error())
	case errors.Is(err, catalog.ErrNotFound), errors.Is(err, relation.ErrNoSuchElement):
		return &apiError{http.StatusNotFound, wire.CodeNotFound, err.Error()}
	case errors.Is(err, catalog.ErrExists), errors.Is(err, relation.ErrAlreadyDeleted),
		errors.Is(err, catalog.ErrIdemReuse):
		return &apiError{http.StatusConflict, wire.CodeConflict, err.Error()}
	case errors.Is(err, catalog.ErrBadName), errors.Is(err, relation.ErrWrongStampKind):
		return &apiError{http.StatusBadRequest, wire.CodeBadRequest, err.Error()}
	case errors.Is(err, relation.ErrRejected), errors.Is(err, catalog.ErrBatchRejected):
		return &apiError{http.StatusConflict, wire.CodeRejected, err.Error()}
	default:
		return errBadRequest("%s", err.Error())
	}
}

// endpointOpts tunes wrap for endpoints outside the common envelope:
// batch mutations weight their admission by request size, and the CSV
// ingest stream carries a far larger body cap than JSON endpoints.
type endpointOpts struct {
	// weight derives the request's admission weight; nil means 1.
	weight func(*http.Request) int
	// bodyCap overrides Config.MaxBodyBytes for this endpoint; 0 keeps it.
	bodyCap int64
}

// batchWeight estimates a batch request's admission weight from its
// declared body size, before any decoding: roughly one write slot per
// 2 KiB of payload (a handful of JSON-encoded elements), clamped by the
// gate to the class limit. Chunked uploads (unknown length) are assumed
// wide — they are bulk loads by construction.
func batchWeight(r *http.Request) int {
	if r.ContentLength < 0 {
		return 8
	}
	return 1 + int(r.ContentLength/2048)
}

// wrap adds the per-endpoint envelope: the client's deadline budget, the
// draining check, class admission, body size cap, JSON rendering, panic
// containment, and metrics accounting. Probe endpoints (class < 0) skip
// draining and admission so the server can always describe its own state.
func (s *Server) wrap(name string, class AdmissionClass, fn func(*http.Request) (*response, *apiError)) http.Handler {
	return s.wrapOpts(name, class, endpointOpts{}, fn)
}

// wrapOpts is wrap with per-endpoint overrides.
func (s *Server) wrapOpts(name string, class AdmissionClass, o endpointOpts, fn func(*http.Request) (*response, *apiError)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		bodyCap := s.cfg.MaxBodyBytes
		if o.bodyCap > 0 {
			bodyCap = o.bodyCap
		}
		r.Body = http.MaxBytesReader(w, r.Body, bodyCap)

		// A client-sent deadline budget shrinks the request context, so
		// catalog scans stop once the caller has given up waiting.
		if ms, ok := deadlineBudget(r); ok {
			ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
			defer cancel()
			r = r.WithContext(ctx)
		}

		var aerr *apiError
		var res *response
		switch {
		case class >= 0 && s.draining.Load():
			aerr = errUnavailable("server is draining")
		case class >= 0 && !s.adm.disabled:
			g := s.adm.gates[class]
			weight := 1
			if o.weight != nil {
				weight = o.weight(r)
			}
			ok, cause := g.acquireN(r.Context(), weight)
			if !ok {
				switch cause {
				case shedQueueFull:
					aerr = errOverloaded("%s admission queue full", class)
				case shedCanceled:
					aerr = errUnavailable("deadline expired in %s admission queue", class)
				default:
					aerr = errUnavailable("%s admission wait exceeded %s", class, g.maxWait)
				}
				break
			}
			defer g.releaseN(weight)
			fallthrough
		default:
			res, aerr = func() (res *response, aerr *apiError) {
				defer func() {
					if p := recover(); p != nil {
						res = nil
						aerr = &apiError{http.StatusInternalServerError, wire.CodeInternal,
							fmt.Sprintf("internal error: %v", p)}
					}
				}()
				return fn(r)
			}()
		}
		touched := 0
		if res != nil {
			touched = res.touched
		}
		// A follower stamps its staleness bound on every response (success
		// or error) once it has synced; before the first catch-up no bound
		// exists, so no header is sent and routers treat the node as
		// unboundedly stale.
		if f := s.cfg.Follower; f != nil {
			if ms, ok := f.StalenessMs(time.Now()); ok {
				w.Header().Set(wire.HeaderStaleness, strconv.FormatInt(ms, 10))
			}
		}
		if aerr != nil {
			// Shed and degraded responses are retryable after a pause; say so.
			if aerr.status == http.StatusTooManyRequests || aerr.status == http.StatusServiceUnavailable {
				w.Header().Set(wire.HeaderRetryAfter, "1")
			}
			writeJSON(w, aerr.status, wire.ErrorBody{Error: wire.ErrorDetail{
				Code: aerr.code, Message: aerr.message,
			}})
		} else {
			status := res.status
			if status == 0 {
				status = http.StatusOK
			}
			if res.etag != "" {
				w.Header().Set(wire.HeaderETag, res.etag)
			}
			if status == http.StatusNotModified {
				w.WriteHeader(status)
			} else {
				writeJSON(w, status, res.body)
			}
		}
		s.metrics.Record(name, time.Since(start), touched, aerr != nil)
	})
}

// deadlineBudget parses the client's remaining-budget header.
func deadlineBudget(r *http.Request) (int64, bool) {
	h := r.Header.Get(wire.HeaderDeadline)
	if h == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	return ms, true
}

// idemKey extracts a mutation's idempotency key (empty when absent).
func idemKey(r *http.Request) string {
	return r.Header.Get(wire.HeaderIdempotencyKey)
}

// writeJSON renders the body through a pooled buffer, so the hot read path
// allocates no per-request encoder scratch and every response carries an
// exact Content-Length.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"response encoding failed"}}`,
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// queryETag renders a relation's mutation epoch as an HTTP validator.
func queryETag(name string, epoch uint64) string {
	return `"` + name + `-` + strconv.FormatUint(epoch, 10) + `"`
}

// etagMatch implements the If-None-Match comparison: a wildcard or any
// listed validator equal to the current one.
func etagMatch(header, etag string) bool {
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}

// decode reads a JSON request body, mapping oversized bodies to 413 and
// malformed ones to 400. Unknown fields are rejected so client typos fail
// loudly instead of silently dropping options.
func decode(r *http.Request, into any) *apiError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &apiError{http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
		}
		if errors.Is(err, io.EOF) {
			return errBadRequest("empty request body")
		}
		return errBadRequest("malformed request body: %v", err)
	}
	return nil
}

func (s *Server) entry(r *http.Request) (*catalog.Entry, *apiError) {
	name := r.PathValue("name")
	e, err := s.cat.Get(name)
	if err != nil {
		return nil, mapError(err)
	}
	return e, nil
}

// handleHealth reports actual liveness state, not an unconditional OK:
// "draining" once graceful shutdown began, "degraded" while the WAL is
// poisoned (reads serve, mutations refused), "ok" otherwise. The original
// fields keep their shape; the state fields are additive and omitted when
// healthy.
func (s *Server) handleHealth(*http.Request) (*response, *apiError) {
	out := wire.HealthResponse{
		Status:        "ok",
		Relations:     s.cat.Len(),
		UptimeSeconds: int64(time.Since(s.metrics.start) / time.Second),
		Role:          s.role(),
	}
	if err := s.cat.Degraded(); err != nil {
		out.Status = "degraded"
		out.ReadOnly = true
		out.WAL = err.Error()
	}
	if s.cat.Follower() {
		// Read-only by design, not degraded: the follower is healthy while
		// it serves reads and tails the primary.
		out.ReadOnly = true
	}
	if s.draining.Load() {
		out.Status = "draining"
		out.Draining = true
	}
	return &response{body: out}, nil
}

// handleReady is the readiness probe: 200 while the server should keep
// receiving traffic, 503 (with reasons) when it should be rotated out —
// draining, WAL poisoned, or an admission queue saturated.
func (s *Server) handleReady(*http.Request) (*response, *apiError) {
	out := wire.ReadyResponse{Ready: true, Status: "ok"}
	if err := s.cat.Degraded(); err != nil {
		out.Ready = false
		out.Status = "degraded"
		out.Reasons = append(out.Reasons, err.Error())
	}
	// A follower that has never caught up would serve arbitrarily stale
	// reads with no staleness bound; keep it out of rotation until its
	// first sync. After that it stays ready even through reconnects — the
	// staleness header tells clients how stale is stale.
	if f := s.cfg.Follower; f != nil && !f.Stats().Synced {
		out.Ready = false
		out.Status = "syncing"
		out.Reasons = append(out.Reasons, "follower has not completed its first catch-up")
	}
	if sat := s.adm.saturated(); len(sat) > 0 {
		out.Ready = false
		if out.Status == "ok" {
			out.Status = "saturated"
		}
		for _, c := range sat {
			out.Reasons = append(out.Reasons, fmt.Sprintf("%s admission queue saturated", c))
		}
	}
	if s.draining.Load() {
		out.Ready = false
		out.Status = "draining"
		out.Reasons = append(out.Reasons, "server is draining")
	}
	status := http.StatusOK
	if !out.Ready {
		status = http.StatusServiceUnavailable
	}
	return &response{status: status, body: out}, nil
}

func (s *Server) handleMetrics(*http.Request) (*response, *apiError) {
	rep := s.metrics.Report()
	if w := s.cat.WAL(); w != nil {
		st := w.Stats()
		rep.WAL = &wire.WALMetrics{
			AppendedRecords:   st.Appended,
			Fsyncs:            st.Fsyncs,
			MeanBatch:         st.MeanBatch(),
			MaxBatch:          st.MaxBatch,
			ReplayedRecords:   st.Replayed,
			LastReplayUS:      st.ReplayDuration.Microseconds(),
			Segments:          st.Segments,
			LastLSN:           st.LastLSN,
			DurableLSN:        st.DurableLSN,
			TruncatedSegments: st.TruncatedSegments,
			VerifyFailures:    st.VerifyFailures,
		}
	}
	rep.Admission = s.adm.report()
	if err := s.cat.Degraded(); err != nil {
		rep.Degraded = &wire.DegradedMetrics{ReadOnly: true, Cause: err.Error()}
	}
	rep.Replication = s.replicationMetrics()
	rep.Integrity = s.integrityMetrics()
	var batch wire.BatchMetrics
	var ing wire.IngestMetrics
	for _, name := range s.cat.Names() {
		e, err := s.cat.Get(name)
		if err != nil {
			continue
		}
		if rep.Physical == nil {
			rep.Physical = make(map[string]wire.PhysicalInfo)
		}
		pb := physicalBody(e.Physical())
		integrityProvenance(&pb, e)
		rep.Physical[name] = pb
		bs := e.BatchStats()
		batch.Batches += bs.Batches
		batch.Rows += bs.Rows
		batch.ColumnarPicks += bs.ColumnarPicks
		batch.RowPicks += bs.RowPicks
		is := e.IngestStats()
		ing.Batches += is.Batches
		ing.BatchedElements += is.Elements
		rep.Plans = addPlans(rep.Plans, e.PlanStats())
	}
	if batch.ColumnarPicks > 0 || batch.RowPicks > 0 {
		if batch.Batches > 0 {
			batch.MeanRowsPerBatch = float64(batch.Rows) / float64(batch.Batches)
		}
		rep.Batch = &batch
	}
	ing.FlushSize = s.ingFlushSize.Load()
	ing.FlushTime = s.ingFlushTime.Load()
	ing.FlushEOF = s.ingFlushEOF.Load()
	if ing.Batches > 0 {
		ing.MeanBatch = float64(ing.BatchedElements) / float64(ing.Batches)
		rep.Ingest = &ing
	}
	if c := s.cat.Cache(); c != nil {
		st := c.Stats()
		rep.QueryCache = &wire.QueryCacheMetrics{
			Hits:      st.Hits,
			Misses:    st.Misses,
			Evictions: st.Evictions,
			Entries:   st.Entries,
			Bytes:     st.Bytes,
			Capacity:  st.Capacity,
		}
	}
	return &response{body: rep}, nil
}

func (s *Server) handleList(*http.Request) (*response, *apiError) {
	out := wire.ListResponse{Relations: []wire.RelationSummary{}}
	for _, name := range s.cat.Names() {
		e, err := s.cat.Get(name)
		if err != nil {
			continue
		}
		info := e.Info()
		out.Relations = append(out.Relations, wire.RelationSummary{
			Name:         name,
			ValidTime:    wire.FromSchema(info.Schema).ValidTime,
			Versions:     info.Versions,
			Declarations: len(info.Declarations),
		})
	}
	return &response{body: out}, nil
}

// classNames renders a class set for the wire.
func classNames(cs []core.Class) []string {
	if len(cs) == 0 {
		return nil
	}
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// physicalBody converts a catalog physical-design snapshot for the wire.
func physicalBody(p catalog.Physical) wire.PhysicalInfo {
	out := wire.PhysicalInfo{
		Org:            p.Org.String(),
		Source:         p.Source,
		Reasons:        p.Reasons,
		Declared:       classNames(p.Declared),
		Inferred:       classNames(p.Inferred),
		Adopted:        classNames(p.Adopted),
		Migrations:     p.Migrations,
		StoreBytes:     p.StoreBytes,
		SealedRuns:     p.Compaction.Runs,
		SealedElements: p.Compaction.Sealed,
		PackedBytes:    p.Compaction.PackedBytes,
		Tracker: &wire.TrackerInfo{
			Elements:     p.Tracker.Elements,
			TTViolations: p.Tracker.TTViolations,
			VTViolations: p.Tracker.VTViolations,
			Overlaps:     p.Tracker.Overlaps,
			OffsetLo:     p.Tracker.OffsetLo,
			OffsetHi:     p.Tracker.OffsetHi,
			VTUnit:       p.Tracker.VTUnit,
		},
	}
	for _, m := range p.History {
		out.History = append(out.History, wire.MigrationInfo{
			Epoch:   m.Epoch,
			From:    m.From.String(),
			To:      m.To.String(),
			Source:  m.Source,
			Reasons: m.Reasons,
		})
	}
	return out
}

func infoBody(e *catalog.Entry) wire.RelationInfo {
	info := e.Info()
	phys := physicalBody(info.Physical)
	integrityProvenance(&phys, e)
	return wire.RelationInfo{
		Schema:       wire.FromSchema(info.Schema),
		Versions:     info.Versions,
		Declarations: wire.FromDescriptors(info.Declarations),
		Advice: wire.Advice{
			Store:   info.Advice.Store.String(),
			Reasons: info.Advice.Reasons,
			Source:  info.Advice.Source,
		},
		Physical: &phys,
		Plans:    addPlans(nil, e.PlanStats()),
	}
}

// addPlans adds a relation's per-plan-kind counts onto their wire form,
// allocating dst on first use (so no counts stay a nil map, omitted on
// the wire). /metrics sums every relation's counts this way.
func addPlans(dst map[string]wire.PlanMetrics, src map[string]plan.KindStats) map[string]wire.PlanMetrics {
	for kind, ks := range src {
		if dst == nil {
			dst = make(map[string]wire.PlanMetrics, len(src))
		}
		pm := dst[kind]
		pm.Requests += uint64(ks.Queries)
		pm.Touched += uint64(ks.Touched)
		dst[kind] = pm
	}
	return dst
}

func (s *Server) handleCreate(r *http.Request) (*response, *apiError) {
	var req wire.CreateRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	schema, err := req.Schema.ToSchema()
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	e, err := s.cat.Create(schema)
	if err != nil {
		return nil, mapError(err)
	}
	return &response{status: http.StatusCreated, body: infoBody(e)}, nil
}

func (s *Server) handleInfo(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	return &response{body: infoBody(e)}, nil
}

func (s *Server) handleDeclare(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.DeclareRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	descs, err := wire.ToDescriptors(req.Constraints)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	if err := e.Declare(descs); err != nil {
		return nil, mapError(err)
	}
	info := e.Info()
	return &response{body: wire.DeclareResponse{
		Declared:     len(descs),
		Declarations: wire.FromDescriptors(info.Declarations),
	}}, nil
}

func (s *Server) handleInsert(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.InsertRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	ins, err := toInsertion(req)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	el, err := e.InsertKeyed(r.Context(), ins, idemKey(r))
	if err != nil {
		return nil, mapError(err)
	}
	return &response{
		status:  http.StatusCreated,
		body:    wire.ElementResponse{Element: wire.FromElement(el)},
		touched: 1,
	}, nil
}

func toInsertion(req wire.InsertRequest) (relation.Insertion, error) {
	vt, err := req.VT.ToTimestamp()
	if err != nil {
		return relation.Insertion{}, err
	}
	inv, err := wire.ToValues(req.Invariant)
	if err != nil {
		return relation.Insertion{}, err
	}
	vary, err := wire.ToValues(req.Varying)
	if err != nil {
		return relation.Insertion{}, err
	}
	var uts []chronon.Chronon
	for _, u := range req.UserTimes {
		uts = append(uts, chronon.Chronon(u))
	}
	return relation.Insertion{
		Object:    surrogate.Surrogate(req.Object),
		VT:        vt,
		Invariant: inv,
		Varying:   vary,
		UserTimes: uts,
	}, nil
}

func (s *Server) handleDelete(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.DeleteRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	if req.ES == 0 {
		return nil, errBadRequest("missing element surrogate")
	}
	if err := e.DeleteKeyed(r.Context(), surrogate.Surrogate(req.ES), idemKey(r)); err != nil {
		return nil, mapError(err)
	}
	return &response{body: struct{}{}, touched: 1}, nil
}

func (s *Server) handleModify(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.ModifyRequest
	if aerr := decode(r, &req); aerr != nil {
		return nil, aerr
	}
	if req.ES == 0 {
		return nil, errBadRequest("missing element surrogate")
	}
	vt, err := req.VT.ToTimestamp()
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	vary, err := wire.ToValues(req.Varying)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	el, err := e.ModifyKeyed(r.Context(), surrogate.Surrogate(req.ES), vt, vary, idemKey(r))
	if err != nil {
		return nil, mapError(err)
	}
	return &response{body: wire.ElementResponse{Element: wire.FromElement(el)}, touched: 2}, nil
}

// handleQuery serves both forms of the query endpoint: POST carries a
// wire.QueryRequest body, GET the same fields as URL parameters so
// intermediaries can cache (conditional, see notModified).
func (s *Server) handleQuery(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	var req wire.QueryRequest
	if r.Method == http.MethodGet {
		req, aerr = queryParams(r.URL.Query())
	} else {
		aerr = decode(r, &req)
	}
	if aerr != nil {
		return nil, aerr
	}
	pq, aerr := queryShape(req)
	if aerr != nil {
		return nil, aerr
	}
	if nm := notModified(r, e); nm != nil {
		return nm, nil
	}
	res, err := e.QueryCtx(r.Context(), pq)
	if err != nil {
		return nil, mapError(err)
	}
	return validated(r, e, res.Epoch, &response{body: wire.QueryResponse{
		Elements: wire.FromElements(res.Elements),
		Plan:     res.Plan,
		PlanNode: wire.FromPlanNode(res.Node),
		Touched:  res.Touched,
		Epoch:    res.Epoch,
	}, touched: res.Touched}), nil
}

// queryParams reads the engine-vocabulary query from URL parameters
// (?kind=...&vt=...&tt=...), the GET form of a wire.QueryRequest.
func queryParams(params url.Values) (wire.QueryRequest, *apiError) {
	vt, aerr := parseInt64Param(params.Get("vt"), "vt")
	if aerr != nil {
		return wire.QueryRequest{}, aerr
	}
	tt, aerr := parseInt64Param(params.Get("tt"), "tt")
	if aerr != nil {
		return wire.QueryRequest{}, aerr
	}
	return wire.QueryRequest{Kind: params.Get("kind"), VT: vt, TT: tt}, nil
}

// queryShape maps a wire query onto the planner's query shape — the one
// mapping the query and explain endpoints share.
func queryShape(req wire.QueryRequest) (plan.Query, *apiError) {
	switch req.Kind {
	case wire.QueryCurrent:
		return plan.Query{Kind: plan.QCurrent}, nil
	case wire.QueryTimeslice:
		return plan.Query{Kind: plan.QTimeslice, VTLo: req.VT, VTHi: req.VT + 1}, nil
	case wire.QueryRollback:
		return plan.Query{Kind: plan.QRollback, TT: req.TT}, nil
	case wire.QueryAsOf:
		return plan.Query{Kind: plan.QAsOf, VTLo: req.VT, TT: req.TT}, nil
	}
	return plan.Query{}, errBadRequest("unknown query kind %q (want %s|%s|%s|%s)",
		req.Kind, wire.QueryCurrent, wire.QueryTimeslice, wire.QueryRollback, wire.QueryAsOf)
}

// parseInt64Param parses an optional integer query parameter ("" is 0).
func parseInt64Param(v, key string) (int64, *apiError) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, errBadRequest("bad %s %q", key, v)
	}
	return n, nil
}

// notModified is the conditional half of a GET read: a request whose
// If-None-Match still names the relation's current epoch gets 304 before
// any query work. Other methods are not cacheable and always run.
func notModified(r *http.Request, e *catalog.Entry) *response {
	if r.Method != http.MethodGet {
		return nil
	}
	inm := r.Header.Get(wire.HeaderIfNoneMatch)
	if inm == "" {
		return nil
	}
	if et := queryETag(e.Name(), e.Epoch()); etagMatch(inm, et) {
		return &response{status: http.StatusNotModified, etag: et}
	}
	return nil
}

// validated stamps a GET answer with the epoch it was computed at as its
// ETag.
func validated(r *http.Request, e *catalog.Entry, epoch uint64, res *response) *response {
	if r.Method == http.MethodGet {
		res.etag = queryETag(e.Name(), epoch)
	}
	return res
}

// parseStatement parses a tsql statement. A route that addresses a
// relation (addressed non-empty) only runs statements that query it.
func parseStatement(src, addressed string) (*tsql.Query, *apiError) {
	q, err := tsql.Parse(src)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	if addressed != "" && q.Rel != addressed {
		return nil, errBadRequest("statement queries %q, endpoint addresses %q", q.Rel, addressed)
	}
	return q, nil
}

// handleExplain plans a query without running it. The query is given
// either as a full statement (?query=SELECT ...) or as the engine
// vocabulary (?kind=current|timeslice|rollback|asof&vt=...&tt=...).
func (s *Server) handleExplain(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	params := r.URL.Query()
	if src := params.Get("query"); src != "" {
		q, aerr := parseStatement(src, e.Name())
		if aerr != nil {
			return nil, aerr
		}
		return explain(r, e, src, func(a plan.Access) *plan.Node { return tsql.Compile(q, a) })
	}
	req, aerr := queryParams(params)
	if aerr != nil {
		return nil, aerr
	}
	pq, aerr := queryShape(req)
	if aerr != nil {
		return nil, aerr
	}
	echo := fmt.Sprintf("kind=%s vt=%d tt=%d", req.Kind, req.VT, req.TT)
	return explain(r, e, echo, func(a plan.Access) *plan.Node { return plan.Build(a, pq) })
}

// explain answers both EXPLAIN surfaces — the explain endpoint and an
// EXPLAIN statement posted to /v1/select — with one ExplainResponse,
// planned through the catalog's read step (so a repeat against an
// unmutated relation is a cache hit) and, on GET, revalidated by epoch.
func explain(r *http.Request, e *catalog.Entry, echo string, build func(plan.Access) *plan.Node) (*response, *apiError) {
	if nm := notModified(r, e); nm != nil {
		return nm, nil
	}
	ex, err := e.ExplainCtx(r.Context(), echo, build)
	if err != nil {
		return nil, mapError(err)
	}
	return validated(r, e, ex.Epoch, &response{body: wire.ExplainResponse{
		Relation:    e.Name(),
		Query:       echo,
		Store:       ex.Store.String(),
		StoreSource: ex.Source,
		Plan:        wire.FromPlanNode(ex.Node),
		Rendered:    ex.Node.Render(),
	}}), nil
}

func (s *Server) handleClassify(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	rep, err := e.Classify()
	if err != nil {
		return nil, mapError(err)
	}
	out := wire.ClassifyResponse{Findings: []string{}, MostSpecific: []string{}}
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, f.String())
	}
	for _, f := range rep.MostSpecific() {
		out.MostSpecific = append(out.MostSpecific, f.String())
	}
	return &response{body: out, touched: e.Info().Versions}, nil
}

// handleSelect serves both forms of SELECT: POST /v1/select carries the
// statement in a wire.SelectRequest body and resolves the relation from
// it; GET /v1/relations/{name}/select carries it as ?query= so
// intermediaries can cache, and answers conditionally like GET queries.
// Window aggregates are the intended GET tenant: their results are
// windows, not elements, so they are cheap to revalidate and expensive to
// recompute. An EXPLAIN statement is planned, not run (POST only).
func (s *Server) handleSelect(r *http.Request) (*response, *apiError) {
	get := r.Method == http.MethodGet
	var src, addressed string
	if get {
		if _, aerr := s.entry(r); aerr != nil {
			return nil, aerr
		}
		addressed = r.PathValue("name")
		if src = r.URL.Query().Get("query"); src == "" {
			return nil, errBadRequest("need ?query=SELECT ...")
		}
	} else {
		var req wire.SelectRequest
		if aerr := decode(r, &req); aerr != nil {
			return nil, aerr
		}
		src = req.Query
	}
	q, aerr := parseStatement(src, addressed)
	if aerr != nil {
		return nil, aerr
	}
	e, err := s.cat.Get(q.Rel)
	if err != nil {
		return nil, mapError(err)
	}
	if q.Explain {
		if get {
			return nil, errBadRequest("EXPLAIN is not cacheable; use the explain endpoint")
		}
		return explain(r, e, src, func(a plan.Access) *plan.Node { return tsql.Compile(q, a) })
	}
	if nm := notModified(r, e); nm != nil {
		return nm, nil
	}
	// Read before the statement pins its view: a writer landing in between
	// leaves the ETag older than the rows, which only costs the client a
	// refetch — never a stale 304.
	epoch := e.Epoch()
	res, node, touched, err := e.SelectCtx(r.Context(), q)
	if err != nil {
		return nil, mapError(err)
	}
	return validated(r, e, epoch, &response{body: selectBody(q, res, node, touched), touched: touched}), nil
}

// selectBody renders a SELECT result for the wire. Aggregate statements
// also report which engine executed (the plan's leaf tells: a
// ColumnarScan leaf ran batch-at-a-time, anything else ran the row fold).
func selectBody(q *tsql.Query, res *tsql.Result, node *plan.Node, touched int) wire.SelectResponse {
	rows := make([][]wire.Value, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = wire.FromValues(row)
	}
	out := wire.SelectResponse{
		Columns: res.Columns,
		Rows:    rows,
		Plan:    wire.FromPlanNode(node),
		Touched: touched,
	}
	if q.Group != nil && node != nil {
		if node.Leaf().Kind == plan.ColumnarScan {
			out.Engine = "columnar"
		} else {
			out.Engine = "row"
		}
	}
	return out
}

func (s *Server) handleSnapshot(*http.Request) (*response, *apiError) {
	n, err := s.cat.Snapshot()
	if err != nil {
		if errors.Is(err, catalog.ErrReadOnly) {
			return nil, mapError(err)
		}
		return nil, &apiError{http.StatusInternalServerError, wire.CodeInternal, err.Error()}
	}
	return &response{body: wire.SnapshotResponse{Saved: n}}, nil
}

// element import keeps the wire package conversions honest for interval
// relations; referenced here to make the dependency explicit.
var _ = element.EventStamp
