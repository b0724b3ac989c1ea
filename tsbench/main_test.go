package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/client"
)

func tinyConfig(t *testing.T, name string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: name, seed: 7, seconds: 1, trace: trace,
		dir: filepath.Join(dir, "data"), spans: filepath.Join(dir, "spans.jsonl"), size: tinySizes,
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny
// sizes: every answer checks out and every declared metric is reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				res, rec, err := run(context.Background(), tinyConfig(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rec.Problems)
				}
				want := []string{"setup_s", "ops_per_s", "op_gmean_ms", "op_p99_ms", "heap_inuse_mb", "disk_bytes_per_version"}
				if trace {
					want = want[:0]
					for _, d := range layerDocs {
						want = append(want, d.Name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d: %v", len(res.Metrics), len(want), res.Metrics)
				}
				for _, m := range want {
					v, ok := res.Metrics[m]
					if !ok {
						t.Fatalf("metric %s missing", m)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("metric %s = %v, want > 0", m, v.Value)
					}
				}
				if trace && rec.SpanCount == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}

// corrupt returns a copy of els with one seeded mistake in it.
func corrupt(rng *rand.Rand, els []client.Element) []client.Element {
	out := append([]client.Element(nil), els...)
	i := rng.Intn(len(out))
	switch rng.Intn(3) {
	case 0:
		return append(out[:i], out[i+1:]...)
	case 1:
		v := append([]client.Value(nil), out[i].Varying...)
		v[0].Int++
		out[i].Varying = v
	default:
		out[i].TTStart--
	}
	return out
}

// TestHistoryValidatorsCatchWrongAnswers checks real answers pass the
// snapshot-reducibility oracle and seeded wrong answers fail it. Each
// wrong answer is checked after the real one, so it meets the memoized
// digest of the expected answer, as repeated queries do in a run.
func TestHistoryValidatorsCatchWrongAnswers(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(t, "history-reads", false)
	prim, err := startPrimary(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.close()
	cli := clientFor(prim, nil, nil)
	h, err := setupHistory(ctx, cli, prim.cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	mix := newOpMix(cfg.seed, 0, cfg.size.ZipfPoints)
	seen := map[string]int{}
	for i := 0; i < 400; i++ {
		op := mix.next()
		q := h.resolve(op, cfg.size.ZipfPoints)
		if q.class == "agg" {
			res, err := cli.Select(ctx, q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if msg := h.checkAgg(q, res); msg != "" {
				t.Fatalf("%s: real answer rejected: %s", q.sql, msg)
			}
			if len(res.Rows) == 0 {
				continue
			}
			bad := res
			bad.Rows = append([][]client.Value(nil), res.Rows...)
			row := append([]client.Value(nil), bad.Rows[0]...)
			row[2+rng.Intn(2)].Int++
			bad.Rows[0] = row
			if h.checkAgg(q, bad) == "" {
				t.Fatalf("%s: wrong aggregate accepted", q.sql)
			}
			seen[op.kind]++
			continue
		}
		var res client.QueryResponse
		switch q.qkind {
		case "timeslice":
			res, err = cli.Timeslice(ctx, q.rel, q.vt)
		case "asof":
			res, err = cli.TimesliceAsOf(ctx, q.rel, q.vt, q.tt)
		case "rollback":
			res, err = cli.Rollback(ctx, q.rel, q.tt)
		}
		if err != nil {
			t.Fatal(err)
		}
		if msg := h.checkRead(q, res.Elements); msg != "" {
			t.Fatalf("%s %+v: real answer rejected: %s", op.kind, q, msg)
		}
		if len(res.Elements) == 0 {
			continue
		}
		if h.checkRead(q, corrupt(rng, res.Elements)) == "" {
			t.Fatalf("%s %+v: wrong answer accepted", op.kind, q)
		}
		seen[op.kind]++
	}
	for _, k := range histKinds {
		if seen[k.kind] == 0 {
			t.Errorf("no non-empty %s answer was checked", k.kind)
		}
	}
}

// TestCorrectionsValidatorsCatchWrongAnswers checks the time-slice and
// final-state checks against seeded mistakes.
func TestCorrectionsValidatorsCatchWrongAnswers(t *testing.T) {
	st := newCorrState()
	st.add(10, 5, 100, 0)
	st.add(11, 5, 200, 1)
	vt := int64(5)
	good := []client.Element{
		{ES: 10, Current: true, VT: client.EventAt(5), Varying: []client.Value{client.Int(100)}},
		{ES: 11, Current: true, VT: client.EventAt(5), Varying: []client.Value{client.Int(200)}},
		{ES: 99, Current: true, VT: client.EventAt(5), Varying: []client.Value{client.Int(1)}}, // the other client's
	}
	if msg := checkSlice(st, vt, good); msg != "" {
		t.Fatalf("real answer rejected: %s", msg)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		bad := append([]client.Element(nil), good...)
		j := rng.Intn(2)
		switch rng.Intn(3) {
		case 0:
			bad = append(bad[:j], bad[j+1:]...)
		case 1:
			bad[j].Varying = []client.Value{client.Int(bad[j].Varying[0].Int + 1)}
		default:
			bad[j].VT = client.EventAt(vt + 1)
		}
		if checkSlice(st, vt, bad) == "" {
			t.Fatalf("wrong answer accepted: %+v", bad)
		}
	}
	stale := append([]client.Element(nil), good...)
	stale[2].VT = client.EventAt(6)
	if checkSlice(st, vt, stale) == "" {
		t.Fatal("element valid elsewhere accepted")
	}

	// Final state: a delete the clients never made must be caught.
	ctx := context.Background()
	prim, err := startPrimary(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.close()
	cli := clientFor(prim, nil, nil)
	if _, err := cli.Create(ctx, eventsSchema()); err != nil {
		t.Fatal(err)
	}
	states := []*corrState{newCorrState(), newCorrState()}
	for i := 0; i < 6; i++ {
		el, err := cli.Insert(ctx, "events", client.InsertRequest{VT: client.EventAt(int64(i)), Varying: []client.Value{client.Int(int64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		states[i%2].add(el.ES, int64(i), int64(i), i)
	}
	if msg, err := checkFinalState(prim, states); err != nil || msg != "" {
		t.Fatalf("real final state rejected: %q %v", msg, err)
	}
	if err := cli.Delete(ctx, "events", states[1].live[0]); err != nil {
		t.Fatal(err)
	}
	if msg, err := checkFinalState(prim, states); err != nil || msg == "" {
		t.Fatalf("unacknowledged delete accepted: %q %v", msg, err)
	}
}

// TestIngestValidatorsCatchDivergence checks the replica checks catch a
// wrong count and a follower that stopped applying.
func TestIngestValidatorsCatchDivergence(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	prim, err := startPrimary(filepath.Join(dir, "p"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.close()
	fol, err := startFollower(filepath.Join(dir, "f"), prim.url)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.close()
	pcli, fcli := clientFor(prim, nil, nil), clientFor(fol, nil, nil)
	if _, err := pcli.Create(ctx, plantSchema("plant")); err != nil {
		t.Fatal(err)
	}
	insert := func(vt int64) {
		if _, err := pcli.Insert(ctx, "plant", client.InsertRequest{VT: client.EventAt(vt),
			Invariant: []client.Value{client.String("s")}, Varying: []client.Value{client.Int(vt)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 5; i++ {
		insert(i)
	}
	if err := waitApplied(ctx, fol, prim.wal.DurableLSN()); err != nil {
		t.Fatal(err)
	}
	failures := func(n int) string {
		var out []string
		for _, msg := range checkReplicas(ctx, pcli, fcli, "plant", n) {
			if msg != "" {
				out = append(out, msg)
			}
		}
		return strings.Join(out, "; ")
	}
	if msg := failures(5); msg != "" {
		t.Fatalf("replicas in sync rejected: %s", msg)
	}
	if failures(6) == "" {
		t.Fatal("wrong element count accepted")
	}
	fol.folStop()
	<-fol.folDone
	insert(6)
	time.Sleep(10 * time.Millisecond)
	if msg := failures(6); !strings.Contains(msg, "follower holds 5") || !strings.Contains(msg, "merkle roots differ") {
		t.Fatalf("stalled follower not caught: %q", msg)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the program in
// step: the same workloads and reasons, metric names, units and
// directions.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name].why != w.Why {
			t.Errorf("workload %s: why differs from code", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s %s, code has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(doc.PerLayer) != len(layerDocs) {
		t.Fatalf("%d layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(layerDocs))
	}
	for i, m := range doc.PerLayer {
		d := layerDocs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("layer %d: %+v, code has %+v", i, m, d)
		}
	}
}

// TestDeckDealsExactShares checks every pass over a deck deals each kind
// in proportion to its weight.
func TestDeckDealsExactShares(t *testing.T) {
	d := newDeck(rand.New(rand.NewSource(1)), []string{"a", "b", "c"}, []int{40, 20, 20})
	if len(d.cards) != 4 {
		t.Fatalf("%d cards, want 4", len(d.cards))
	}
	for pass := 0; pass < 50; pass++ {
		got := map[string]int{}
		for i := 0; i < len(d.cards); i++ {
			got[d.deal()]++
		}
		if got["a"] != 2 || got["b"] != 1 || got["c"] != 1 {
			t.Fatalf("pass %d dealt %v", pass, got)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); g < 3.999 || g > 4.001 {
		t.Fatalf("geomean(1, 4, 16) = %v, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean() = %v, want 0", g)
	}
}
