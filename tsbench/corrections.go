package main

import (
	"context"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
)

// The corrections workload: single-element writes beside time-slice
// reads on a large general event relation. Each client works on its own
// slice of the elements, so it can check its slice exactly.
var correctionsWorkload = workload{
	why: "keyed insert/modify/delete beside time-slices on a 200k-element general relation: storage copy-on-shared replace, catalog commit and WAL fsyncs dominate; qcache, vec, repl idle",
	params: func(s sizes) map[string]any {
		return map[string]any{
			"relation": "events (event, v int, no declarations)", "preload": s.CorrectionsLoad,
			"vt_range": s.CorrectionsVT, "clients": clients,
			"mix": "40% time-slice, 20% insert, 20% modify, 20% delete",
		}
	},
	round:  correctionsRound,
	ladder: correctionsLadder,
}

const preloadBatch = 1000

func eventsSchema() client.Schema {
	return client.Schema{Name: "events", ValidTime: "event", Granularity: 1,
		Varying: []client.Column{{Name: "v", Type: "int"}}}
}

// corrOp is one completed operation, kept for the direct ladder.
type corrOp struct {
	seq  int64
	kind string // timeslice, insert, modify, delete
	lid  int    // logical element id (preload index, or minted at insert)
	vt   int64
	v    int64
}

// corrState is one client's slice of the relation as it must stand. It
// stays small next to the relation so heap_inuse_mb is mostly the
// program's.
type corrState struct {
	elems map[uint64]corrElem // live elements by ES
	atVT  map[int64]int32     // live elements per valid time
	live  []uint64            // ES values, for uniform picks
}

type corrElem struct {
	vt, v int64
	lid   int // logical id, stable across modifies (the ladder's key)
}

func newCorrState() *corrState {
	return &corrState{elems: map[uint64]corrElem{}, atVT: map[int64]int32{}}
}

func (s *corrState) add(es uint64, vt, v int64, lid int) {
	s.elems[es] = corrElem{vt, v, lid}
	s.atVT[vt]++
	s.live = append(s.live, es)
}

// remove drops the live element at index i of s.live.
func (s *corrState) remove(i int) {
	es := s.live[i]
	s.atVT[s.elems[es].vt]--
	delete(s.elems, es)
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
}

// preloadValues is the seeded preload: element i has valid time vts[i]
// and value vs[i].
func preloadValues(seed int64, n, vtRange int) (vts, vs []int64) {
	rng := mrand.New(mrand.NewSource(seed ^ 0x5eed))
	vts, vs = make([]int64, n), make([]int64, n)
	for i := range vts {
		vts[i], vs[i] = int64(rng.Intn(vtRange)), int64(rng.Intn(1_000_000))
	}
	return vts, vs
}

func correctionsRound(ctx context.Context, cfg config, idx int, d time.Duration, p *probe) (*roundResult, error) {
	r := &roundResult{lat: latencies{}}
	dir := filepath.Join(cfg.dir, fmt.Sprintf("corrections-%d", idx))
	defer os.RemoveAll(dir)

	setupStart := time.Now()
	prim, err := bootPrimary(dir, p)
	if err != nil {
		return nil, err
	}
	defer prim.close()
	cli := clientFor(prim, p, nil)
	if _, err := cli.Create(ctx, eventsSchema()); err != nil {
		return nil, err
	}
	n := cfg.size.CorrectionsLoad
	vts, vs := preloadValues(cfg.seed, n, cfg.size.CorrectionsVT)
	states := make([]*corrState, clients)
	for c := range states {
		states[c] = newCorrState()
	}
	for i := 0; i < n; i += preloadBatch {
		reqs := make([]client.InsertRequest, 0, preloadBatch)
		for j := i; j < n && len(reqs) < preloadBatch; j++ {
			reqs = append(reqs, client.InsertRequest{VT: client.EventAt(vts[j]), Varying: []client.Value{client.Int(vs[j])}})
		}
		res, err := cli.InsertBatch(ctx, "events", reqs, true)
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		for k, it := range res.Items {
			if it.Element == nil {
				return nil, fmt.Errorf("preload item %d: %s %s", i+k, it.Status, it.Error)
			}
			states[(i+k)%clients].add(it.Element.ES, vts[i+k], vs[i+k], i+k)
		}
	}
	r.setup = time.Since(setupStart)

	if p != nil {
		if err := p.begin(ctx, prim, cli); err != nil {
			return nil, err
		}
	}
	var seq atomic.Int64
	var lidNext atomic.Int64
	lidNext.Store(int64(n))
	type clientOut struct {
		lat               latencies
		ops, versions     int64
		attempted, failed int64
		problems          []string
		log               []corrOp
	}
	outs := make([]clientOut, clients)
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.lat = latencies{}
			st := states[c]
			rng := mrand.New(mrand.NewSource(cfg.seed*7919 + int64(c)))
			kinds := newDeck(rng, []string{"timeslice", "insert", "modify", "delete"}, []int{40, 20, 20, 20})
			bad := func(format string, args ...any) {
				o.failed++
				if len(o.problems) < 10 {
					o.problems = append(o.problems, fmt.Sprintf("client %d: "+format, append([]any{c}, args...)...))
				}
			}
			for time.Now().Before(deadline) {
				kind := kinds.deal()
				if (kind == "delete" || kind == "modify") && len(st.live) == 0 {
					kind = "insert"
				}
				vt, v := int64(rng.Intn(cfg.size.CorrectionsVT)), int64(rng.Intn(1_000_000))
				op := corrOp{kind: kind, vt: vt, v: v}
				class := "write"
				if kind == "timeslice" {
					class = "read"
				}
				octx, id := p.opCtx(ctx)
				o.attempted++
				t0 := time.Now()
				var err error
				var el client.Element
				var q client.QueryResponse
				pick := 0
				switch kind {
				case "timeslice":
					q, err = cli.Timeslice(octx, "events", vt)
				case "insert":
					el, err = cli.Insert(octx, "events", client.InsertRequest{VT: client.EventAt(vt), Varying: []client.Value{client.Int(v)}})
				case "modify":
					pick = rng.Intn(len(st.live))
					op.lid = st.elems[st.live[pick]].lid
					el, err = cli.Modify(octx, "events", st.live[pick], client.EventAt(vt), []client.Value{client.Int(v)})
				case "delete":
					pick = rng.Intn(len(st.live))
					op.lid = st.elems[st.live[pick]].lid
					err = cli.Delete(octx, "events", st.live[pick])
				}
				dur := time.Since(t0)
				p.clientSpan(id, class, t0, dur)
				if err != nil {
					bad("%s: %v", kind, err)
					continue
				}
				// A wrong answer counts as failed, not as a completed
				// operation; the write it acknowledged still happened.
				wrong := ""
				op.seq = seq.Add(1)
				switch kind {
				case "timeslice":
					p.book("read", q.Touched, len(q.Elements))
					if msg := checkSlice(st, vt, q.Elements); msg != "" {
						wrong = fmt.Sprintf("timeslice vt=%d: %s", vt, msg)
					}
				case "insert":
					op.lid = int(lidNext.Add(1))
					if !echoes(el, vt, v) {
						wrong = fmt.Sprintf("insert ack %+v does not echo vt=%d v=%d", el, vt, v)
					}
					st.add(el.ES, vt, v, op.lid)
					o.versions++
				case "modify":
					if !echoes(el, vt, v) {
						wrong = fmt.Sprintf("modify ack %+v does not echo vt=%d v=%d", el, vt, v)
					}
					st.remove(pick)
					st.add(el.ES, vt, v, op.lid)
					o.versions++
				case "delete":
					st.remove(pick)
				}
				if p != nil {
					o.log = append(o.log, op)
				}
				if wrong != "" {
					bad("%s", wrong)
					continue
				}
				o.lat.add(class+"/"+kind, dur)
				o.ops++
			}
		}(c)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	var versions int64
	var log []corrOp
	for _, o := range outs {
		r.lat.merge(o.lat)
		r.ops += o.ops
		versions += o.versions
		r.attempted += o.attempted
		r.failed += o.failed
		r.problems = append(r.problems, o.problems...)
		log = append(log, o.log...)
	}
	if p != nil {
		if err := p.end(ctx, prim, cli, r.ops, versions); err != nil {
			return nil, err
		}
		sort.Slice(log, func(i, j int) bool { return log[i].seq < log[j].seq })
		p.log = log
	}

	// Final state: the preload plus inserts minus deletes, with modifies
	// applied, read straight from the primary's catalog.
	r.attempted++
	if msg, err := checkFinalState(prim, states); err != nil {
		return nil, err
	} else if msg != "" {
		r.fail("final state: %s", msg)
	}
	r.heapMB = heapInuseMB()
	held, err := versionsHeld(prim.cat)
	if err != nil {
		return nil, err
	}
	if err := prim.close(); err != nil {
		return nil, err
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	r.diskPerVersion = ratio(float64(bytes), float64(held))
	return r, nil
}

func echoes(el client.Element, vt, v int64) bool {
	return el.VT.Event != nil && *el.VT.Event == vt && len(el.Varying) == 1 && el.Varying[0].Int == v && el.Current
}

// checkSlice verifies a time-slice answer: every element is current and
// valid at vt, and the client's own slice appears exactly as it must.
func checkSlice(st *corrState, vt int64, got []client.Element) string {
	mine := 0
	for _, el := range got {
		if el.VT.Event == nil || *el.VT.Event != vt || !el.Current {
			return fmt.Sprintf("element %d is not current at vt %d", el.ES, vt)
		}
		if want, ok := st.elems[el.ES]; ok {
			if len(el.Varying) != 1 || el.Varying[0].Int != want.v {
				return fmt.Sprintf("element %d has v=%v, want %d", el.ES, el.Varying, want.v)
			}
			mine++
		}
	}
	if want := int(st.atVT[vt]); mine != want {
		return fmt.Sprintf("answer holds %d of this client's elements, want %d", mine, want)
	}
	return ""
}

// checkFinalState compares the primary's current state with the union of
// the clients' expected slices.
func checkFinalState(prim *node, states []*corrState) (string, error) {
	e, err := prim.cat.Get("events")
	if err != nil {
		return "", err
	}
	cur, err := e.CurrentCtx(context.Background())
	if err != nil {
		return "", err
	}
	want := 0
	for _, st := range states {
		want += len(st.elems)
	}
	if len(cur.Elements) != want {
		return fmt.Sprintf("%d current elements, want %d", len(cur.Elements), want), nil
	}
	for _, el := range cur.Elements {
		es := uint64(el.ES)
		vt, _ := el.VT.Event()
		found := false
		for _, st := range states {
			if want, ok := st.elems[es]; ok {
				found = true
				got, _ := el.Varying[0].IntVal()
				if int64(vt) != want.vt || got != want.v {
					return fmt.Sprintf("element %d is (vt %d, v %d), want (vt %d, v %d)", es, vt, got, want.vt, want.v), nil
				}
			}
		}
		if !found {
			return fmt.Sprintf("element %d is current but was never acknowledged or was deleted", es), nil
		}
	}
	return "", nil
}

// correctionsLadder replays the traced phase's operations, in completion
// order, against the catalog methods the server calls.
func correctionsLadder(ctx context.Context, cfg config, p *probe) error {
	dir := filepath.Join(cfg.dir, "ladder")
	defer os.RemoveAll(dir)
	ln, err := openPrimaryCatalog(dir, nil)
	if err != nil {
		return err
	}
	defer ln.close()
	e, err := ln.cat.Create(relation.Schema{Name: "events", ValidTime: element.EventStamp, Granularity: 1,
		Varying: []relation.Column{{Name: "v", Type: element.KindInt}}})
	if err != nil {
		return err
	}
	n := cfg.size.CorrectionsLoad
	vts, vs := preloadValues(cfg.seed, n, cfg.size.CorrectionsVT)
	es := map[int]surrogate.Surrogate{}
	for i := 0; i < n; i += preloadBatch {
		var ins []relation.Insertion
		var keys []string
		for j := i; j < n && len(ins) < preloadBatch; j++ {
			ins = append(ins, eventIns(vts[j], vs[j]))
			keys = append(keys, idemKey())
		}
		res, err := e.InsertBatch(ctx, ins, keys, true)
		if err != nil {
			return err
		}
		for k, it := range res.Items {
			es[i+k] = it.Elem.ES
		}
	}
	log, _ := p.log.([]corrOp)
	if len(log) > cfg.size.LadderMaxOps {
		log = log[:cfg.size.LadderMaxOps]
	}
	for _, op := range log {
		var err error
		switch op.kind {
		case "timeslice":
			err = p.ladderCall("timeslice", func() error {
				_, err := e.TimesliceCtx(ctx, chronon.Chronon(op.vt))
				return err
			})
		case "insert":
			err = p.ladderCall("insert", func() error {
				el, err := e.InsertKeyed(ctx, eventIns(op.vt, op.v), idemKey())
				if err == nil {
					es[op.lid] = el.ES
				}
				return err
			})
		case "modify":
			err = p.ladderCall("modify", func() error {
				el, err := e.ModifyKeyed(ctx, es[op.lid], element.EventAt(chronon.Chronon(op.vt)),
					[]element.Value{element.Int(op.v)}, idemKey())
				if err == nil {
					es[op.lid] = el.ES
				}
				return err
			})
		case "delete":
			err = p.ladderCall("delete", func() error { return e.DeleteKeyed(ctx, es[op.lid], idemKey()) })
		}
		if err != nil {
			return fmt.Errorf("ladder %s: %w", op.kind, err)
		}
	}
	return nil
}

func eventIns(vt, v int64) relation.Insertion {
	return relation.Insertion{VT: element.EventAt(chronon.Chronon(vt)), Varying: []element.Value{element.Int(v)}}
}
