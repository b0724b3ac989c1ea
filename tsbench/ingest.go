package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	mrand "math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
)

// The ingest workload: the paper's plant-monitoring case. One client
// Loader streams a vt-sequential stream of sensor readings into a fresh
// relation while one follower tails the primary over loopback.
var ingestWorkload = workload{
	fixedWork: true,
	why:       "loader batches of vt-sequential readings, follower tailing: batch decode, InsertBatch, WAL, Merkle leaves and follower apply do the work; the follower shares the 2 vCPUs",
	params: func(s sizes) map[string]any {
		return map[string]any{
			"relation": "plant (event, sensor string, reading int)", "events_per_round": s.IngestEvents,
			"loader": "client.Loader defaults (256 elements / 50 ms)", "followers": 1, "sensors": plantSensors,
		}
	},
	round:  ingestRound,
	ladder: ingestLadder,
}

const (
	plantSensors = 64
	plantVT0     = 1_000_000
)

func plantSchema(name string) client.Schema {
	return client.Schema{
		Name: name, ValidTime: "event", Granularity: 1,
		Invariant: []client.Column{{Name: "sensor", Type: "string"}},
		Varying:   []client.Column{{Name: "reading", Type: "int"}},
	}
}

// plantStream generates the seeded, vt-sequential readings.
type plantStream struct {
	rng *mrand.Rand
	vt  int64
}

func newPlantStream(seed int64) *plantStream {
	return &plantStream{rng: mrand.New(mrand.NewSource(seed ^ 0x1a2b)), vt: plantVT0}
}

func (s *plantStream) next() (vt int64, sensor string, reading int64) {
	s.vt += 1 + int64(s.rng.Intn(3))
	return s.vt, fmt.Sprintf("s%02d", s.rng.Intn(plantSensors)), int64(s.rng.Intn(10_000))
}

func ingestRound(ctx context.Context, cfg config, idx int, _ time.Duration, p *probe) (*roundResult, error) {
	n := cfg.size.IngestEvents
	r := &roundResult{extra: map[string]float64{}}
	dir := filepath.Join(cfg.dir, fmt.Sprintf("ingest-%d", idx))
	defer os.RemoveAll(dir)

	setupStart := time.Now()
	prim, err := bootPrimary(filepath.Join(dir, "primary"), p)
	if err != nil {
		return nil, err
	}
	defer prim.close()
	fol, err := startFollower(filepath.Join(dir, "follower"), prim.url)
	if err != nil {
		return nil, err
	}
	defer fol.close()
	lt := &latTransport{lat: latencies{}}
	cli := clientFor(prim, p, lt)
	if _, err := cli.Create(ctx, plantSchema("plant")); err != nil {
		return nil, err
	}
	if err := waitApplied(ctx, fol, prim.wal.DurableLSN()); err != nil {
		return nil, err
	}
	r.setup = time.Since(setupStart)

	if p != nil {
		if err := p.begin(ctx, prim, cli); err != nil {
			return nil, err
		}
	}
	stopLag := func() []float64 { return nil }
	if p != nil {
		stopLag = sampleLag(prim, fol)
	}
	fol0 := fol.fol.Stats()
	lt.mu.Lock()
	lt.lat = latencies{}
	lt.mu.Unlock()

	gen := newPlantStream(cfg.seed)
	loader := cli.NewLoader("plant", client.LoaderConfig{})
	start := time.Now()
	for i := 0; i < n; i++ {
		vt, sensor, reading := gen.next()
		if err := loader.Add(ctx, client.InsertRequest{
			VT:        client.EventAt(vt),
			Invariant: []client.Value{client.String(sensor)},
			Varying:   []client.Value{client.Int(reading)},
		}); err != nil {
			loader.Close()
			return nil, err
		}
	}
	flushErr := loader.Flush(ctx)
	acked := time.Since(start)
	finalLSN := prim.wal.DurableLSN()
	if err := waitApplied(ctx, fol, finalLSN); err != nil {
		loader.Close()
		return nil, err
	}
	replicated := time.Since(start)
	lags := stopLag()
	closeErr := loader.Close()
	st := loader.Stats()

	r.elapsed, r.ops = acked, st.Stored
	lt.mu.Lock()
	r.lat = latencies{"batch": lt.lat["batch"]}
	lt.mu.Unlock()
	r.extra["acked_elems_per_s"] = float64(st.Stored) / acked.Seconds()
	r.extra["replicated_elems_per_s"] = float64(n) / replicated.Seconds()

	if p != nil {
		fol1 := fol.fol.Stats()
		if err := p.end(ctx, prim, cli, st.Stored, st.Stored); err != nil {
			return nil, err
		}
		var tails float64
		if a, b := p.after.metrics.Replication, p.before.metrics.Replication; a != nil && b != nil {
			tails = float64(a.TailRequests - b.TailRequests)
		}
		p.set("repl.frames_per_poll", ratio(float64(fol1.FramesApplied-fol0.FramesApplied), tails))
		p.set("repl.lag_records_p99", quantile(lags, 0.99))
		p.set("client.loader_mean_batch", ratio(float64(st.Added), float64(st.Batches)))
		if err := directBatches(ctx, cfg, cli, p); err != nil {
			return nil, err
		}
	}

	// Checks: every element acknowledged once, both nodes hold N
	// elements, and their Merkle roots agree.
	r.attempted = int64(n)
	if flushErr != nil || closeErr != nil {
		r.fail("loader: flush %v, close %v", flushErr, closeErr)
	}
	if lost := int64(n) - st.Stored; lost != 0 || st.Failed != 0 {
		r.failN(max(lost, 1), "loader stored %d of %d elements (%d rejected, %d deduped, %d failed batches)",
			st.Stored, n, st.Rejected, st.Deduped, st.Failed)
	}
	fcli := clientFor(fol, nil, nil)
	for _, msg := range checkReplicas(ctx, cli, fcli, "plant", n) {
		r.attempted++
		if msg != "" {
			r.fail("%s", msg)
		}
	}

	r.heapMB = heapInuseMB()
	if err := fol.close(); err != nil {
		return nil, err
	}
	if err := prim.close(); err != nil {
		return nil, err
	}
	bytes, err := dirBytes(prim.dataDir)
	if err != nil {
		return nil, err
	}
	r.diskPerVersion = ratio(float64(bytes), float64(n))
	return r, nil
}

// checkReplicas checks that primary and follower each hold n elements of
// rel and report the same Merkle root through the integrity endpoint. It
// returns one entry per check, "" for a pass.
func checkReplicas(ctx context.Context, pcli, fcli *client.Client, rel string, n int) []string {
	var out []string
	for _, side := range []struct {
		name string
		cli  *client.Client
	}{{"primary", pcli}, {"follower", fcli}} {
		msg := ""
		info, err := side.cli.Info(ctx, rel)
		if err != nil || info.Versions != n {
			msg = fmt.Sprintf("%s holds %d elements (err %v), want %d", side.name, info.Versions, err, n)
		}
		out = append(out, msg)
	}
	pi, perr := pcli.Integrity(ctx, rel)
	fi, ferr := fcli.Integrity(ctx, rel)
	msg := ""
	if perr != nil || ferr != nil || pi.Size == 0 || pi.Size != fi.Size || string(pi.Root) != string(fi.Root) {
		msg = fmt.Sprintf("merkle roots differ: primary size %d root %x (err %v), follower size %d root %x (err %v)",
			pi.Size, pi.Root, perr, fi.Size, fi.Root, ferr)
	}
	return append(out, msg)
}

// waitApplied blocks until the follower has applied lsn.
func waitApplied(ctx context.Context, fol *node, lsn uint64) error {
	deadline := time.Now().Add(2 * time.Minute)
	for fol.fol.Stats().AppliedLSN < lsn {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at lsn %d of %d: %s", fol.fol.Stats().AppliedLSN, lsn, fol.fol.Stats().LastError)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// sampleLag samples the follower's lag behind the primary's log, in
// records, every 5 ms until the returned stop function is called.
func sampleLag(prim, fol *node) func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var lags []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- lags
				return
			case <-tick.C:
				last, applied := prim.wal.LastLSN(), fol.fol.Stats().AppliedLSN
				lags = append(lags, float64(last)-math.Min(float64(applied), float64(last)))
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// directBatches times client.InsertBatch calls made directly (the call
// the Loader makes) so the client's own share of a batch is a span
// difference; they land in a side relation so the checked one keeps N.
func directBatches(ctx context.Context, cfg config, cli *client.Client, p *probe) error {
	if _, err := cli.Create(ctx, plantSchema("plant_probe")); err != nil {
		return err
	}
	gen := newPlantStream(cfg.seed + 1)
	p.tr.active.Store(true)
	defer p.tr.active.Store(false)
	for b := 0; b < cfg.size.DirectBatchProbes; b++ {
		reqs := make([]client.InsertRequest, 256)
		for i := range reqs {
			vt, sensor, reading := gen.next()
			reqs[i] = client.InsertRequest{VT: client.EventAt(vt),
				Invariant: []client.Value{client.String(sensor)}, Varying: []client.Value{client.Int(reading)}}
		}
		id := p.tr.newID()
		var err error
		p.tr.timed(id, "client.batch", "", func() {
			_, err = cli.InsertBatch(withOp(ctx, id), "plant_probe", reqs, false)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ingestLadder replays the stream's first events as the Loader's 256-
// element batches straight into Entry.InsertBatch, then applies the
// resulting log to a follower catalog in polls of the size the traced
// follower saw.
func ingestLadder(ctx context.Context, cfg config, p *probe) error {
	dir := filepath.Join(cfg.dir, "ladder")
	defer os.RemoveAll(dir)
	ln, err := openPrimaryCatalog(filepath.Join(dir, "primary"), nil)
	if err != nil {
		return err
	}
	defer ln.close()
	e, err := ln.cat.Create(relation.Schema{
		Name: "plant", ValidTime: element.EventStamp, Granularity: 1,
		Invariant: []relation.Column{{Name: "sensor", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "reading", Type: element.KindInt}},
	})
	if err != nil {
		return err
	}
	n := min(cfg.size.IngestEvents, cfg.size.LadderMaxOps)
	gen := newPlantStream(cfg.seed)
	for i := 0; i < n; i += 256 {
		ins := make([]relation.Insertion, 0, 256)
		keys := make([]string, 0, 256)
		for j := i; j < n && len(ins) < 256; j++ {
			vt, sensor, reading := gen.next()
			ins = append(ins, relation.Insertion{
				VT:        element.EventAt(chronon.Chronon(vt)),
				Invariant: []element.Value{element.String_(sensor)},
				Varying:   []element.Value{element.Int(reading)},
			})
			keys = append(keys, idemKey())
		}
		var res catalog.BatchResult
		if err := p.ladderCall("insert_batch", func() error {
			var err error
			res, err = e.InsertBatch(ctx, ins, keys, false)
			return err
		}); err != nil {
			return err
		}
		if res.Stored != len(ins) {
			return fmt.Errorf("ladder batch stored %d of %d", res.Stored, len(ins))
		}
	}

	fcat := catalog.New(catalog.Config{Dir: filepath.Join(dir, "follower"), CacheBytes: cacheBytes, Follower: true})
	if err := fcat.Open(); err != nil {
		return err
	}
	defer fcat.Close()
	poll := int(math.Round(p.layers["repl.frames_per_poll"]))
	if poll < 1 {
		poll = 1
	}
	var applyTime time.Duration
	frames := 0
	for from := uint64(1); ; {
		recs, _, err := ln.wal.IterateFrom(from, poll)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			break
		}
		applyTime += p.tr.timed(p.tr.newID(), "repl.apply", "repl.poll", func() { err = fcat.ApplyReplicated(recs) })
		if err != nil {
			return err
		}
		frames += len(recs)
		from = recs[len(recs)-1].LSN + 1
	}
	p.set("repl.apply_us_per_frame", ratio(float64(applyTime.Microseconds()), float64(frames)))
	fe, err := fcat.Get("plant")
	if err != nil {
		return err
	}
	if got := fe.Info().Versions; got != n {
		return fmt.Errorf("ladder follower holds %d of %d elements", got, n)
	}
	return nil
}

// idemKey mints an idempotency key shaped like the client's.
func idemKey() string {
	var b [16]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
