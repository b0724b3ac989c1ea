package backlog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/tx"
)

// goldenSnapshotDir holds v5 snapshot shards the catalog wrote before the
// codec collapsed into one Write/Read pair (internal/catalog's
// writeGoldenSnapshot lists their history). They are history: the test
// pins what Load answers from them and that Write of the loaded relation
// and meta reproduces each file byte for byte.
const goldenSnapshotDir = "testdata/golden-snapshot"

func renderElements(els []*element.Element) string {
	rows := make([]string, len(els))
	for i, el := range els {
		end := "inf"
		if el.TTEnd != chronon.Forever {
			end = strconv.FormatInt(int64(el.TTEnd), 10)
		}
		rows[i] = fmt.Sprintf("%d/%d%v@%d[%d,%s)%v", el.ES, el.OS, el.Invariant, el.VT.Start(), el.TTStart, end, el.Varying)
	}
	return strings.Join(rows, " ")
}

const goldenSnapshotWant = `emp.tsbl
  schema: emp event second [{name string}] [{salary int}]
  decl: event retroactive (per relation)
  decl: inter-event globally sequential (events) (per partition)
  wal-lsn: 9
  physical: org=1 source=default adopted=[] migrations=0
  integrity: tracked=true leaves=9 root=7a5b7702e38ade82b03bb8ef697af8a80f292a51376f7bc489b78c9866e92403
  signed: rel=emp size=9 root=7a5b7702e38ade82b03bb8ef697af8a80f292a51376f7bc489b78c9866e92403 key=ea4a6c63e29c520abef5507b132ec5f9954776aebebe7b92421eea691446d22c verifies=true
  current: 3/3["carol"]@3[30,inf)[300] 4/4["dave"]@4[40,inf)[400] 5/1["alice"]@20[60,inf)[150] 6/5["eve"]@11[70,inf)[500]
  rollback 5: 
  rollback 15: 1/1["alice"]@1[10,60)[100]
  rollback 35: 1/1["alice"]@1[10,60)[100] 2/2["bob"]@2[20,50)[200] 3/3["carol"]@3[30,inf)[300]
  rollback 55: 1/1["alice"]@1[10,60)[100] 3/3["carol"]@3[30,inf)[300] 4/4["dave"]@4[40,inf)[400]
  rollback 65: 3/3["carol"]@3[30,inf)[300] 4/4["dave"]@4[40,inf)[400] 5/1["alice"]@20[60,inf)[150]
  rollback 75: 3/3["carol"]@3[30,inf)[300] 4/4["dave"]@4[40,inf)[400] 5/1["alice"]@20[60,inf)[150] 6/5["eve"]@11[70,inf)[500]
  rollback 95: 3/3["carol"]@3[30,inf)[300] 4/4["dave"]@4[40,inf)[400] 5/1["alice"]@20[60,inf)[150] 6/5["eve"]@11[70,inf)[500]
mon.tsbl
  schema: mon event second [] []
  wal-lsn: 20
  physical: org=2 source=inferred adopted=[12 15 13] migrations=1
  integrity: tracked=true leaves=11 root=9a0e99b479c89d28f340c4bdc0ae90350c3517518cb5b99f93eaece1304bc86f
  signed: rel=mon size=11 root=9a0e99b479c89d28f340c4bdc0ae90350c3517518cb5b99f93eaece1304bc86f key=ea4a6c63e29c520abef5507b132ec5f9954776aebebe7b92421eea691446d22c verifies=true
  current: 1/1[]@10[10,inf)[] 2/2[]@20[20,inf)[] 3/3[]@30[30,inf)[] 4/4[]@40[40,inf)[] 5/5[]@50[50,inf)[] 6/6[]@60[60,inf)[] 7/7[]@70[70,inf)[] 8/8[]@80[80,inf)[] 9/9[]@90[90,inf)[]
  rollback 5: 
  rollback 15: 1/1[]@10[10,inf)[]
  rollback 35: 1/1[]@10[10,inf)[] 2/2[]@20[20,inf)[] 3/3[]@30[30,inf)[]
  rollback 55: 1/1[]@10[10,inf)[] 2/2[]@20[20,inf)[] 3/3[]@30[30,inf)[] 4/4[]@40[40,inf)[] 5/5[]@50[50,inf)[]
  rollback 65: 1/1[]@10[10,inf)[] 2/2[]@20[20,inf)[] 3/3[]@30[30,inf)[] 4/4[]@40[40,inf)[] 5/5[]@50[50,inf)[] 6/6[]@60[60,inf)[]
  rollback 75: 1/1[]@10[10,inf)[] 2/2[]@20[20,inf)[] 3/3[]@30[30,inf)[] 4/4[]@40[40,inf)[] 5/5[]@50[50,inf)[] 6/6[]@60[60,inf)[] 7/7[]@70[70,inf)[]
  rollback 95: 1/1[]@10[10,inf)[] 2/2[]@20[20,inf)[] 3/3[]@30[30,inf)[] 4/4[]@40[40,inf)[] 5/5[]@50[50,inf)[] 6/6[]@60[60,inf)[] 7/7[]@70[70,inf)[] 8/8[]@80[80,inf)[] 9/9[]@90[90,inf)[]
`

// TestGoldenSnapshotLoads pins Load's schema, meta, and current and rollback
// answers on each golden shard, that restored declarations guard new
// transactions, and that Write reproduces the shard byte for byte.
func TestGoldenSnapshotLoads(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"emp.tsbl", "mon.tsbl"} {
		path := filepath.Join(goldenSnapshotDir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, m, err := Load(path, tx.NewLogicalClock(0, 10))
		if err != nil {
			t.Fatalf("Load %s: %v", name, err)
		}
		decls, walLSN, phys, ig := m.Decls, m.WALLSN, m.Physical, m.Integrity
		s := r.Schema()
		fmt.Fprintf(&b, "%s\n  schema: %s %v %v %v %v\n", name, s.Name, s.ValidTime, s.Granularity, s.Invariant, s.Varying)
		for _, d := range decls {
			fmt.Fprintf(&b, "  decl: %v\n", d)
		}
		fmt.Fprintf(&b, "  wal-lsn: %d\n  physical: org=%d source=%s adopted=%v migrations=%d\n",
			walLSN, phys.Org, phys.Source, phys.Adopted, phys.Migrations)
		root := integrity.NewTreeFromLeaves(ig.Leaves).Root()
		fmt.Fprintf(&b, "  integrity: tracked=%v leaves=%d root=%s\n", ig.Tracked, len(ig.Leaves), hex.EncodeToString(root[:]))
		if sr := ig.Root; sr != nil {
			fmt.Fprintf(&b, "  signed: rel=%s size=%d root=%s key=%s verifies=%v\n", sr.Rel, sr.Size,
				hex.EncodeToString(sr.Root[:]), hex.EncodeToString(sr.Key), integrity.VerifyRoot(sr.Key, *sr))
		}
		fmt.Fprintf(&b, "  current: %s\n", renderElements(r.Current()))
		for _, tt := range []chronon.Chronon{5, 15, 35, 55, 65, 75, 95} {
			fmt.Fprintf(&b, "  rollback %d: %s\n", tt, renderElements(r.Rollback(tt)))
		}

		if len(decls) > 0 {
			// vt far past the next tt breaks the restored retroactive declaration.
			_, err := r.Insert(relation.Insertion{
				VT:        element.EventAt(100000),
				Invariant: []element.Value{element.String_("zed")},
				Varying:   []element.Value{element.Int(1)},
			})
			if !errors.Is(err, relation.ErrRejected) {
				t.Errorf("%s: future insert after Load = %v, want a rejection", name, err)
			}
		}

		var buf bytes.Buffer
		if err := Write(&buf, r, m); err != nil {
			t.Fatalf("Write %s: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Errorf("%s: Write of the loaded relation differs from the golden bytes", name)
		}
	}
	if got := b.String(); got != goldenSnapshotWant {
		t.Fatalf("golden snapshot state:\n%s\nwant:\n%s", got, goldenSnapshotWant)
	}
}
