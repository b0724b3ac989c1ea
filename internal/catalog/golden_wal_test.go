package catalog

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/tx"
	"repro/internal/wal"
)

// goldenWALDir holds a log written by the catalog before every data write
// shared one frame kind. Its two relations, in LSN order:
//
//	emp: create (1); unkeyed insert ×3 (3), delete (4), modify (5);
//	     keyed insert "ins-k" (6), delete "del-k" (7), modify "mod-k" (8);
//	     batch of three keyed "b-1", unkeyed, keyed "b-3" (10);
//	     declare per-relation predictive (2); keyed insert "ins-after" (6)
//	mon: create (1); six degenerate unkeyed inserts (3);
//	     respecialize (9); one more unkeyed insert (3)
//
// Both relations ran on tx.NewLogicalClock(0, 10). The files are history:
// today's catalog cannot write kinds 3–8, so they are never regenerated.
const goldenWALDir = "testdata/golden-wal"

var goldenKeys = []string{"ins-k", "del-k", "mod-k", "b-1", "b-3", "ins-after"}

// goldenState renders everything the golden test pins about a booted
// catalog: per relation its current, time-slice, and rollback answers, its
// idempotency keys, its organization, and its Merkle tree.
func goldenState(t *testing.T, c *Catalog) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	render := func(label string, res QueryResult, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		els := append([]*element.Element(nil), res.Elements...)
		sort.Slice(els, func(i, j int) bool { return els[i].ES < els[j].ES })
		rows := make([]string, len(els))
		for i, el := range els {
			end := "inf"
			if el.TTEnd != chronon.Forever {
				end = strconv.FormatInt(int64(el.TTEnd), 10)
			}
			rows[i] = fmt.Sprintf("%d%v@%d[%d,%s)%v", el.ES, el.Invariant, el.VT.Start(), el.TTStart, end, el.Varying)
		}
		fmt.Fprintf(&b, "  %s: %s\n", label, strings.Join(rows, " "))
	}
	for _, name := range c.Names() {
		e, err := c.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s org=%v decls=%d\n", name, e.Physical().Org, len(e.Info().Declarations))
		res, err := e.CurrentCtx(ctx)
		render("current", res, err)
		for _, vt := range []chronon.Chronon{10, 30, 70, 100, 130, 150, 170, 500} {
			res, err := e.TimesliceCtx(ctx, vt)
			render(fmt.Sprintf("timeslice %d", vt), res, err)
		}
		for _, tt := range []chronon.Chronon{5, 35, 45, 55, 75, 85, 105, 125} {
			res, err := e.RollbackCtx(ctx, tt)
			render(fmt.Sprintf("rollback %d", tt), res, err)
		}
		var keys []string
		for _, k := range goldenKeys {
			if e.HasIdemKey(k) {
				keys = append(keys, k)
			}
		}
		fmt.Fprintf(&b, "  keys: %s\n", strings.Join(keys, " "))
		ig := e.IntegrityState()
		fmt.Fprintf(&b, "  merkle: size=%d root=%s\n", ig.Size, hex.EncodeToString(ig.Root[:]))
	}
	return b.String()
}

// bootGolden boots a catalog from the golden segments, installed into an
// in-memory file system so the committed files are never written.
func bootGolden(t *testing.T) (*wal.Log, *Catalog, []wal.Kind) {
	t.Helper()
	fs := wal.NewErrFS()
	des, err := os.ReadDir(goldenWALDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(goldenWALDir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fs.Install(de.Name(), data)
	}
	w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	recs, _, err := w.IterateFrom(1, 0)
	if err != nil {
		t.Fatalf("IterateFrom: %v", err)
	}
	var kinds []wal.Kind
	for _, r := range recs {
		kinds = append(kinds, r.Kind)
	}
	c := New(Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w})
	if err := c.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	return w, c, kinds
}

// goldenWant was rendered by goldenState from the live catalog that wrote
// the log, and matched its own replay.
const goldenWant = `emp org=tt-ordered log decls=1
  current: 4["alice"]@130[50,inf)[11] 6["dave"]@150[80,inf)[41] 7["eve"]@160[90,inf)[50] 8["frank"]@170[100,inf)[60] 9["gina"]@180[110,inf)[70] 10["hal"]@500[120,inf)[80]
  timeslice 10: 
  timeslice 30: 
  timeslice 70: 
  timeslice 100: 
  timeslice 130: 4["alice"]@130[50,inf)[11]
  timeslice 150: 6["dave"]@150[80,inf)[41]
  timeslice 170: 8["frank"]@170[100,inf)[60]
  timeslice 500: 10["hal"]@500[120,inf)[80]
  rollback 5: 
  rollback 35: 1["alice"]@100[10,50)[10] 2["bob"]@110[20,40)[20] 3["carol"]@120[30,70)[30]
  rollback 45: 1["alice"]@100[10,50)[10] 3["carol"]@120[30,70)[30]
  rollback 55: 3["carol"]@120[30,70)[30] 4["alice"]@130[50,inf)[11]
  rollback 75: 4["alice"]@130[50,inf)[11] 5["dave"]@140[60,80)[40]
  rollback 85: 4["alice"]@130[50,inf)[11] 6["dave"]@150[80,inf)[41]
  rollback 105: 4["alice"]@130[50,inf)[11] 6["dave"]@150[80,inf)[41] 7["eve"]@160[90,inf)[50] 8["frank"]@170[100,inf)[60]
  rollback 125: 4["alice"]@130[50,inf)[11] 6["dave"]@150[80,inf)[41] 7["eve"]@160[90,inf)[50] 8["frank"]@170[100,inf)[60] 9["gina"]@180[110,inf)[70] 10["hal"]@500[120,inf)[80]
  keys: ins-k del-k mod-k b-1 b-3 ins-after
  merkle: size=12 root=a82705f4359e67280d0e242ff0edfecaf9479cca70dc35d8a8cd2eed35faa981
mon org=vt-ordered log decls=0
  current: 1[]@10[10,inf)[] 2[]@20[20,inf)[] 3[]@30[30,inf)[] 4[]@40[40,inf)[] 5[]@50[50,inf)[] 6[]@60[60,inf)[] 7[]@70[70,inf)[]
  timeslice 10: 1[]@10[10,inf)[]
  timeslice 30: 3[]@30[30,inf)[]
  timeslice 70: 7[]@70[70,inf)[]
  timeslice 100: 
  timeslice 130: 
  timeslice 150: 
  timeslice 170: 
  timeslice 500: 
  rollback 5: 
  rollback 35: 1[]@10[10,inf)[] 2[]@20[20,inf)[] 3[]@30[30,inf)[]
  rollback 45: 1[]@10[10,inf)[] 2[]@20[20,inf)[] 3[]@30[30,inf)[] 4[]@40[40,inf)[]
  rollback 55: 1[]@10[10,inf)[] 2[]@20[20,inf)[] 3[]@30[30,inf)[] 4[]@40[40,inf)[] 5[]@50[50,inf)[]
  rollback 75: 1[]@10[10,inf)[] 2[]@20[20,inf)[] 3[]@30[30,inf)[] 4[]@40[40,inf)[] 5[]@50[50,inf)[] 6[]@60[60,inf)[] 7[]@70[70,inf)[]
  rollback 85: 1[]@10[10,inf)[] 2[]@20[20,inf)[] 3[]@30[30,inf)[] 4[]@40[40,inf)[] 5[]@50[50,inf)[] 6[]@60[60,inf)[] 7[]@70[70,inf)[]
  rollback 105: 1[]@10[10,inf)[] 2[]@20[20,inf)[] 3[]@30[30,inf)[] 4[]@40[40,inf)[] 5[]@50[50,inf)[] 6[]@60[60,inf)[] 7[]@70[70,inf)[]
  rollback 125: 1[]@10[10,inf)[] 2[]@20[20,inf)[] 3[]@30[30,inf)[] 4[]@40[40,inf)[] 5[]@50[50,inf)[] 6[]@60[60,inf)[] 7[]@70[70,inf)[]
  keys: 
  merkle: size=9 root=014e0651d18a08c7927fa06138761e4384bb8849855341cc06b948143c71f87d
`

// TestGoldenWALReplays proves a log from before the single data frame
// still replays to the same answers, dedup window, and Merkle roots.
func TestGoldenWALReplays(t *testing.T) {
	_, c, kinds := bootGolden(t)
	seen := make(map[wal.Kind]bool)
	for _, k := range kinds {
		seen[k] = true
	}
	for k := wal.Kind(1); k <= 10; k++ {
		if !seen[k] {
			t.Fatalf("golden log lacks frame kind %d (kinds %v)", k, kinds)
		}
	}
	if got := goldenState(t, c); got != goldenWant {
		t.Fatalf("golden replay state:\n%s\nwant:\n%s", got, goldenWant)
	}
}
