package server_test

// End-to-end acceptance: boot tsdbd's server on a loopback listener, drive
// it through the typed client — create, declare retroactive+sequential,
// insert (including a violating transaction the enforcer must reject),
// tsql SELECT, the temporal queries — then restart the server against the
// same data directory and verify the relation, its declared
// specializations, and their enforcement all survived, and that /metrics
// reflects the requests served.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wire"
)

// bootServer starts a server over a fresh catalog on dir, with
// deterministic logical clocks (tt = 10, 20, ... per relation).
func bootServer(t *testing.T, dir string) (*client.Client, func()) {
	t.Helper()
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
	return client.New("http://" + ln.Addr().String()), stop
}

func empSchema() client.Schema {
	return client.Schema{
		Name:        "emp",
		ValidTime:   "event",
		Granularity: 1,
		Invariant:   []client.Column{{Name: "name", Type: "string"}},
		Varying:     []client.Column{{Name: "salary", Type: "int"}},
	}
}

func mustDescriptor(t *testing.T, c constraint.Constraint) client.Descriptor {
	t.Helper()
	d, ok := constraint.Describe(c, constraint.PerRelation)
	if !ok {
		t.Fatalf("constraint %v is not describable", c)
	}
	return wire.FromDescriptor(d)
}

func insertReq(vt int64, name string, salary int64) client.InsertRequest {
	return client.InsertRequest{
		VT:        client.EventAt(vt),
		Invariant: []client.Value{client.String(name)},
		Varying:   []client.Value{client.Int(salary)},
	}
}

func TestEndToEndServerLifecycle(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cli, stop := bootServer(t, dir)

	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Creating the same relation twice is a conflict.
	if _, err := cli.Create(ctx, empSchema()); err == nil {
		t.Fatal("duplicate Create succeeded")
	}

	// Declare retroactive (vt ≤ tt) and globally sequential events
	// (each event occurs and is stored before the next begins).
	retro := mustDescriptor(t, constraint.Event{Spec: core.RetroactiveSpec()})
	seq := mustDescriptor(t, constraint.InterEvent{Spec: core.SequentialEventsSpec()})
	decl, err := cli.Declare(ctx, "emp", retro, seq)
	if err != nil {
		t.Fatalf("Declare: %v", err)
	}
	if decl.Declared != 2 || len(decl.Declarations) != 2 {
		t.Fatalf("Declare = %+v, want 2 declarations", decl)
	}

	// tt=10: vt 5 ≤ 10, first event.
	el1, err := cli.Insert(ctx, "emp", insertReq(5, "merrie", 27000))
	if err != nil {
		t.Fatalf("insert 1: %v", err)
	}
	if el1.TTStart != 10 {
		t.Fatalf("insert 1 tt = %d, want 10", el1.TTStart)
	}
	// tt=20: vt 15 — after max(10, 5), before tt. Fine.
	el2, err := cli.Insert(ctx, "emp", insertReq(15, "tom", 31000))
	if err != nil {
		t.Fatalf("insert 2: %v", err)
	}
	if el2.TTStart != 20 {
		t.Fatalf("insert 2 tt = %d, want 20", el2.TTStart)
	}
	// vt 12 starts before element 2 completed (max(tt,vt)=20): the
	// sequential enforcer must reject the transaction with the distinct
	// "rejected" error code.
	if _, err := cli.Insert(ctx, "emp", insertReq(12, "lindy", 19000)); !client.IsRejected(err) {
		t.Fatalf("violating insert: err = %v, want rejected", err)
	}
	// A later event is fine again; the rejected attempt must not have
	// corrupted enforcement state.
	el3, err := cli.Insert(ctx, "emp", insertReq(25, "lindy", 19000))
	if err != nil {
		t.Fatalf("insert 3: %v", err)
	}
	if el3.TTStart <= el2.TTStart {
		t.Fatalf("insert 3 tt = %d, want > %d", el3.TTStart, el2.TTStart)
	}

	sel, err := cli.Select(ctx, "select name, salary from emp")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(sel.Rows) != 3 {
		t.Fatalf("Select rows = %d, want 3", len(sel.Rows))
	}

	if q, err := cli.Timeslice(ctx, "emp", 5); err != nil || len(q.Elements) != 1 {
		t.Fatalf("Timeslice(5) = %d elements, %v; want 1", len(q.Elements), err)
	}
	if q, err := cli.Rollback(ctx, "emp", 15); err != nil || len(q.Elements) != 1 {
		t.Fatalf("Rollback(15) = %d elements, %v; want 1", len(q.Elements), err)
	}
	if q, err := cli.TimesliceAsOf(ctx, "emp", 15, 25); err != nil || len(q.Elements) != 1 {
		t.Fatalf("TimesliceAsOf(15, 25) = %d elements, %v; want 1", len(q.Elements), err)
	}
	if q, err := cli.Current(ctx, "emp"); err != nil || len(q.Elements) != 3 {
		t.Fatalf("Current = %d elements, %v; want 3", len(q.Elements), err)
	}

	// Error surface: missing relation and malformed query kind.
	if _, err := cli.Current(ctx, "nobody"); !client.IsNotFound(err) {
		t.Fatalf("Current(nobody) err = %v, want not_found", err)
	}
	if _, err := cli.Query(ctx, "emp", client.QueryRequest{Kind: "sideways"}); err == nil {
		t.Fatal("bad query kind succeeded")
	}

	// Metrics must reflect the traffic: 4 insert attempts, 1 of them an
	// error (the rejected transaction).
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Requests == 0 {
		t.Fatal("metrics report zero requests")
	}
	ins := m.Endpoints["insert"]
	if ins.Requests != 4 || ins.Errors != 1 {
		t.Fatalf("insert metrics = %d requests / %d errors, want 4 / 1", ins.Requests, ins.Errors)
	}
	if qm := m.Endpoints["query"]; qm.Touched == 0 {
		t.Fatalf("query metrics report no elements touched: %+v", qm)
	}

	if n, err := cli.Snapshot(ctx); err != nil || n < 1 {
		t.Fatalf("Snapshot = %d, %v; want >= 1", n, err)
	}

	stop() // graceful shutdown flushes the catalog

	// Reboot against the same data directory: schema, data, and declared
	// specializations must all survive.
	cli2, stop2 := bootServer(t, dir)
	defer stop2()

	info, err := cli2.Info(ctx, "emp")
	if err != nil {
		t.Fatalf("Info after restart: %v", err)
	}
	if info.Versions != 3 {
		t.Fatalf("restarted versions = %d, want 3", info.Versions)
	}
	if len(info.Declarations) != 2 {
		t.Fatalf("restarted declarations = %d, want 2", len(info.Declarations))
	}
	if q, err := cli2.Timeslice(ctx, "emp", 15); err != nil || len(q.Elements) != 1 {
		t.Fatalf("restarted Timeslice(15) = %d elements, %v; want 1", len(q.Elements), err)
	}
	// Enforcement was re-warmed from the persisted declarations: a
	// violating transaction is still rejected...
	if _, err := cli2.Insert(ctx, "emp", insertReq(1, "eve", 1000)); !client.IsRejected(err) {
		t.Fatalf("post-restart violating insert: err = %v, want rejected", err)
	}
	// ...and a valid one still accepted, at a transaction time past
	// everything replayed.
	el4, err := cli2.Insert(ctx, "emp", insertReq(55, "pat", 40000))
	if err != nil {
		t.Fatalf("post-restart insert: %v", err)
	}
	if el4.TTStart <= el3.TTStart {
		t.Fatalf("post-restart tt = %d, want > %d", el4.TTStart, el3.TTStart)
	}
	m2, err := cli2.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics after restart: %v", err)
	}
	if m2.Requests == 0 {
		t.Fatal("restarted metrics report zero requests")
	}
}

// TestExplainOverTheWire drives the explain surfaces end to end: EXPLAIN
// SELECT through /v1/select, the kind-based GET endpoint, the structured
// plan attached to real query responses, and the per-plan-kind /metrics
// aggregation — before and after a declaration flips the chosen plan.
func TestExplainOverTheWire(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cli, stop := bootServer(t, dir)
	defer stop()

	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, vt := range []int64{5, 15, 25} {
		if _, err := cli.Insert(ctx, "emp", insertReq(vt, "w", int64(1000*(i+1)))); err != nil {
			t.Fatalf("insert vt=%d: %v", vt, err)
		}
	}

	// Undeclared: the advisor keeps the general tt-ordered log, and a
	// timeslice can only plan as a full scan under current-state.
	exp, err := cli.ExplainSelect(ctx, "SELECT * FROM emp WHEN VALID AT 15")
	if err != nil {
		t.Fatalf("ExplainSelect: %v", err)
	}
	if exp.Relation != "emp" || exp.Store != "tt-ordered log" {
		t.Fatalf("ExplainSelect = rel %q store %q, want emp / tt-ordered log", exp.Relation, exp.Store)
	}
	if exp.Plan == nil {
		t.Fatal("ExplainSelect returned no structured plan")
	}
	if leaf := exp.Plan.Leaf(); leaf.Kind != "full-scan" || leaf.Org != "tt-ordered log" {
		t.Fatalf("leaf = %s on %s, want full-scan on tt-ordered log", leaf.Kind, leaf.Org)
	}
	for _, want := range []string{"current-state", "full-scan on tt-ordered log"} {
		if !strings.Contains(exp.Rendered, want) {
			t.Errorf("Rendered missing %q:\n%s", want, exp.Rendered)
		}
	}

	// The kind-based endpoint must agree with the statement form.
	exp2, err := cli.Explain(ctx, "emp", client.QueryRequest{Kind: client.QueryTimeslice, VT: 15})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if exp2.Plan == nil || exp2.Plan.Leaf().Kind != "full-scan" {
		t.Fatalf("kind-based Explain leaf = %+v, want full-scan", exp2.Plan)
	}

	// Declaring globally non-decreasing events re-advises to the
	// vt-ordered log; the same EXPLAIN now shows a vt binary search.
	nd := mustDescriptor(t, constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()})
	if _, err := cli.Declare(ctx, "emp", nd); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	exp3, err := cli.ExplainSelect(ctx, "explain select name from emp when valid at 15")
	if err != nil {
		t.Fatalf("ExplainSelect after declare: %v", err)
	}
	if exp3.Store != "vt-ordered log" {
		t.Fatalf("store after declare = %q, want vt-ordered log", exp3.Store)
	}
	if leaf := exp3.Plan.Leaf(); leaf.Kind != "vt-binary-search" {
		t.Fatalf("leaf after declare = %s, want vt-binary-search", leaf.Kind)
	}

	// Running the query for real returns the same plan both ways: the
	// legacy one-liner and the structured tree.
	qr, err := cli.Timeslice(ctx, "emp", 15)
	if err != nil {
		t.Fatalf("Timeslice: %v", err)
	}
	if qr.Plan != "binary search (vt-ordered log)" {
		t.Fatalf("Timeslice plan = %q, want binary search (vt-ordered log)", qr.Plan)
	}
	if qr.PlanNode == nil || qr.PlanNode.Leaf().Kind != "vt-binary-search" {
		t.Fatalf("Timeslice plan node = %+v, want vt-binary-search leaf", qr.PlanNode)
	}
	if len(qr.Elements) != 1 {
		t.Fatalf("Timeslice(15) = %d elements, want 1", len(qr.Elements))
	}
	sr, err := cli.Select(ctx, "SELECT * FROM emp WHEN VALID AT 15")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sr.Plan == nil || sr.Plan.Leaf().Kind != "vt-binary-search" {
		t.Fatalf("Select plan = %+v, want vt-binary-search leaf", sr.Plan)
	}

	// /metrics aggregates touched-counts per plan kind; the two executed
	// vt-binary-search queries above must both be booked.
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	vbs, ok := m.Plans["vt-binary-search"]
	if !ok || vbs.Requests < 2 {
		t.Fatalf("metrics plans = %+v, want vt-binary-search with >= 2 requests", m.Plans)
	}

	// Error shapes: an unknown ?kind= and a statement addressed to the
	// wrong relation are both structured bad requests.
	if _, err := cli.Explain(ctx, "emp", client.QueryRequest{Kind: "bogus"}); !isBadRequest(err) {
		t.Fatalf("bogus kind: err = %v, want bad_request", err)
	}
	base := cli.BaseURL()
	resp, err := http.Get(base + "/v1/relations/emp/explain?query=" + url.QueryEscape("SELECT * FROM other"))
	if err != nil {
		t.Fatalf("raw explain GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched relation explain status = %d, want 400", resp.StatusCode)
	}
}

func isBadRequest(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Code == client.CodeBadRequest
}

// TestErrorCodeIgnoresRelationName pins that error classification reads
// the error's type, not its text: the same malformed insert is a bad
// request whatever the relation is called, and a guard refusal is
// "rejected" on either relation.
func TestErrorCodeIgnoresRelationName(t *testing.T) {
	ctx := context.Background()
	cli, stop := bootServer(t, t.TempDir())
	defer stop()
	retro := mustDescriptor(t, constraint.Event{Spec: core.RetroactiveSpec()})
	for _, name := range []string{"orders", "rejected_orders"} {
		if _, err := cli.Create(ctx, client.Schema{Name: name, ValidTime: "event", Granularity: 1}); err != nil {
			t.Fatalf("Create %s: %v", name, err)
		}
		// One varying value for a schema with no varying columns.
		bad := client.InsertRequest{VT: client.EventAt(1), Varying: []client.Value{client.Int(1)}}
		if _, err := cli.Insert(ctx, name, bad); !isBadRequest(err) {
			t.Fatalf("%s: malformed insert: err = %v, want bad_request", name, err)
		}
		if _, err := cli.Declare(ctx, name, retro); err != nil {
			t.Fatalf("Declare %s: %v", name, err)
		}
		// tt = 10 on a fresh relation; vt 1000 is not retroactive.
		if _, err := cli.Insert(ctx, name, client.InsertRequest{VT: client.EventAt(1000)}); !client.IsRejected(err) {
			t.Fatalf("%s: violating insert: err = %v, want rejected", name, err)
		}
	}
}
