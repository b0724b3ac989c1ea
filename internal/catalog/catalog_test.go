package catalog

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/tx"
)

func testConfig(dir string) Config {
	return Config{
		Dir:      dir,
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
	}
}

func eventSchema(name string) relation.Schema {
	return relation.Schema{
		Name:        name,
		ValidTime:   element.EventStamp,
		Granularity: chronon.Second,
	}
}

// currentOf answers the conventional query, failing the test on error.
func currentOf(t testing.TB, e *Entry) []*element.Element {
	t.Helper()
	res, err := e.CurrentCtx(context.Background())
	if err != nil {
		t.Fatalf("CurrentCtx(%s): %v", e.Name(), err)
	}
	return res.Elements
}

func mustDescribe(t *testing.T, c constraint.Constraint, scope constraint.Scope) constraint.Descriptor {
	t.Helper()
	d, ok := constraint.Describe(c, scope)
	if !ok {
		t.Fatalf("constraint %v not describable", c)
	}
	return d
}

func TestCatalogCreateGetNames(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	if _, err := c.Create(eventSchema("emp")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Create(eventSchema("emp")); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	for _, bad := range []string{"", "0emp", "a/b", "..", "emp.tsbl"} {
		if _, err := c.Create(eventSchema(bad)); err == nil {
			t.Errorf("Create(%q) succeeded, want bad-name error", bad)
		}
	}
	if _, err := c.Get("nobody"); err == nil {
		t.Fatal("Get(nobody) succeeded")
	}
	if _, err := c.Create(eventSchema("dept")); err != nil {
		t.Fatalf("Create dept: %v", err)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "dept" || names[1] != "emp" {
		t.Fatalf("Names = %v", names)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCatalogDeclareValidatesHistory(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(eventSchema("log"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// tt=10 vt=50: a predictive (future-dated) event.
	if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(50)}, ""); err != nil {
		t.Fatalf("insert: %v", err)
	}
	retro := mustDescribe(t, constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
	if err := e.Declare([]constraint.Descriptor{retro}); err == nil {
		t.Fatal("Declare(retroactive) over a predictive history succeeded")
	}
	if len(e.Info().Declarations) != 0 {
		t.Fatal("rejected declaration left a catalog entry")
	}
	// A declaration the history satisfies is accepted and then enforced.
	pred := mustDescribe(t, constraint.Event{Spec: core.PredictiveSpec()}, constraint.PerRelation)
	if err := e.Declare([]constraint.Descriptor{pred}); err != nil {
		t.Fatalf("Declare(predictive): %v", err)
	}
	if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(3)}, ""); err == nil {
		t.Fatal("retroactive insert accepted despite predictive declaration")
	}
}

func TestCatalogSnapshotAndReload(t *testing.T) {
	dir := t.TempDir()
	c := New(testConfig(dir))
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	retro := mustDescribe(t, constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
	if err := e.Declare([]constraint.Descriptor{retro}); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(5)}, ""); err != nil {
		t.Fatalf("insert: %v", err)
	}
	n, err := c.Snapshot()
	if err != nil || n != 1 {
		t.Fatalf("Snapshot = %d, %v; want 1", n, err)
	}
	// A second snapshot with no changes writes nothing.
	if n, err := c.Snapshot(); err != nil || n != 0 {
		t.Fatalf("idle Snapshot = %d, %v; want 0", n, err)
	}

	c2 := New(testConfig(dir))
	if err := c2.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	e2, err := c2.Get("emp")
	if err != nil {
		t.Fatalf("Get after reload: %v", err)
	}
	info := e2.Info()
	if info.Versions != 1 || len(info.Declarations) != 1 {
		t.Fatalf("reloaded info = %+v", info)
	}
	// The persisted declaration is enforced again.
	if _, err := e2.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(10_000)}, ""); err == nil {
		t.Fatal("future-dated insert accepted after reload of retroactive relation")
	}
}

func TestCatalogOpenRejectsMismatchedName(t *testing.T) {
	dir := t.TempDir()
	c := New(testConfig(dir))
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(5)}, ""); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := os.Rename(filepath.Join(dir, "emp.tsbl"), filepath.Join(dir, "imp.tsbl")); err != nil {
		t.Fatalf("rename: %v", err)
	}
	c2 := New(testConfig(dir))
	if err := c2.Open(); err == nil {
		t.Fatal("Open accepted a backlog under the wrong file name")
	}
}

func TestCatalogQueryAccounting(t *testing.T) {
	c := New(testConfig(""))
	e, err := c.Create(eventSchema("m"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(i))}, ""); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	ctx := context.Background()
	res, err := e.TimesliceCtx(ctx, 2)
	if err != nil || len(res.Elements) != 1 || res.Plan == "" || res.Touched == 0 {
		t.Fatalf("Timeslice = %+v, %v", res, err)
	}
	res, err = e.TimesliceAsOfCtx(ctx, 2, 30)
	if err != nil || len(res.Elements) != 1 || res.Touched != 5 {
		t.Fatalf("TimesliceAsOf = %d elements, touched %d, %v", len(res.Elements), res.Touched, err)
	}
	if got := len(currentOf(t, e)); got != 5 {
		t.Fatalf("Current = %d elements", got)
	}
	if res, err := e.RollbackCtx(ctx, 25); err != nil || len(res.Elements) != 2 {
		t.Fatalf("Rollback(25) = %d elements, %v", len(res.Elements), err)
	}
}

func TestCatalogAdvisorUsesPerRelationScopeOnly(t *testing.T) {
	c := New(testConfig(""))
	e, err := c.Create(eventSchema("s"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// A per-partition sequentiality says nothing about the global
	// interleaving, so the advice must stay with the general organization.
	seqPart := mustDescribe(t, constraint.InterEvent{Spec: core.SequentialEventsSpec()}, constraint.PerPartition)
	if err := e.Declare([]constraint.Descriptor{seqPart}); err != nil {
		t.Fatalf("Declare per-partition: %v", err)
	}
	perPartAdvice := e.Info().Advice
	// The same class per-relation licenses a specialized organization.
	seqRel := mustDescribe(t, constraint.InterEvent{Spec: core.SequentialEventsSpec()}, constraint.PerRelation)
	if err := e.Declare([]constraint.Descriptor{seqRel}); err != nil {
		t.Fatalf("Declare per-relation: %v", err)
	}
	perRelAdvice := e.Info().Advice
	if perPartAdvice.Store == perRelAdvice.Store {
		t.Fatalf("advice ignored scope: per-partition %v, per-relation %v",
			perPartAdvice.Store, perRelAdvice.Store)
	}
}

func ExampleCatalog() {
	c := New(Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }})
	e, _ := c.Create(relation.Schema{
		Name: "temps", ValidTime: element.EventStamp, Granularity: chronon.Second,
	})
	ctx := context.Background()
	e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(5)}, "")
	res, _ := e.TimesliceCtx(ctx, 5)
	fmt.Println(len(res.Elements))
	// Output: 1
}
