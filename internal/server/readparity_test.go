package server_test

// Read-path parity: every query shape answers identically over POST and
// GET (elements or rows, plan node, touched, epoch), with the result cache
// on and off; a 304 replay serves the first body; the router answers what
// the client does; and /metrics books plan kinds exactly as the relations'
// own registries do, so a cache hit counts 0 touched everywhere.

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"repro/client"
)

// seedReadHistory gives emp a history every query shape can tell apart: a
// modify and a delete close versions, so rollback and as-of see elements
// the current state no longer holds.
func seedReadHistory(t *testing.T, c *client.Client) {
	t.Helper()
	ctx := context.Background()
	if _, err := c.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	var ess []uint64
	for i, name := range []string{"merrie", "tom", "ann", "joe", "sue"} {
		el, err := c.Insert(ctx, "emp", insertReq(int64(100*(i+1)), name, int64(1000*(i+1))))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ess = append(ess, el.ES)
	}
	if _, err := c.Modify(ctx, "emp", ess[1], client.EventAt(250), []client.Value{client.Int(2500)}); err != nil {
		t.Fatalf("Modify: %v", err)
	}
	if err := c.Delete(ctx, "emp", ess[3]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
}

func TestReadPathParity(t *testing.T) {
	for _, cacheBytes := range []int64{0, 1 << 20} {
		t.Run("cache="+strconv.FormatInt(cacheBytes, 10), func(t *testing.T) {
			ctx := context.Background()
			c, base, stop := bootCachedServer(t, t.TempDir(), cacheBytes)
			defer stop()
			seedReadHistory(t, c)
			router := client.NewRouter(base, nil)

			var epoch uint64
			for _, req := range []client.QueryRequest{
				{Kind: client.QueryCurrent},
				{Kind: client.QueryTimeslice, VT: 300},
				{Kind: client.QueryRollback, TT: 30},
				{Kind: client.QueryAsOf, VT: 200, TT: 30},
			} {
				post, err := c.Query(ctx, "emp", req)
				if err != nil {
					t.Fatalf("POST %+v: %v", req, err)
				}
				if len(post.Elements) == 0 || post.PlanNode == nil || post.Epoch == 0 {
					t.Fatalf("POST %+v answered %+v", req, post)
				}
				get, err := c.QueryCached(ctx, "emp", req)
				if err != nil {
					t.Fatalf("GET %+v: %v", req, err)
				}
				if get.NotModified || !reflect.DeepEqual(get.QueryResponse, post) {
					t.Fatalf("GET %+v diverges from POST:\nGET:  %+v\nPOST: %+v", req, get, post)
				}
				if want := `"emp-` + strconv.FormatUint(post.Epoch, 10) + `"`; get.ETag != want {
					t.Fatalf("GET %+v ETag %q, want %q", req, get.ETag, want)
				}
				replay, err := c.QueryCached(ctx, "emp", req)
				if err != nil {
					t.Fatalf("GET replay %+v: %v", req, err)
				}
				if !replay.NotModified || !reflect.DeepEqual(replay.QueryResponse, get.QueryResponse) {
					t.Fatalf("304 replay of %+v diverges:\nreplay: %+v\nfirst:  %+v", req, replay, get)
				}
				routed, err := router.Query(ctx, "emp", req)
				if err != nil {
					t.Fatalf("Router.Query %+v: %v", req, err)
				}
				if !reflect.DeepEqual(routed, post) {
					t.Fatalf("Router.Query %+v diverges from Client.Query:\nrouter: %+v\nclient: %+v", req, routed, post)
				}
				epoch = post.Epoch
			}

			for _, src := range []string{
				"select name, salary from emp when valid at 300",
				"select count(*), sum(salary) from emp group by window(200)",
			} {
				post, err := c.Select(ctx, src)
				if err != nil {
					t.Fatalf("POST %q: %v", src, err)
				}
				if len(post.Rows) == 0 || post.Plan == nil {
					t.Fatalf("POST %q answered %+v", src, post)
				}
				get, err := c.SelectCached(ctx, "emp", src)
				if err != nil {
					t.Fatalf("GET %q: %v", src, err)
				}
				if get.NotModified || !reflect.DeepEqual(get.SelectResponse, post) {
					t.Fatalf("GET %q diverges from POST:\nGET:  %+v\nPOST: %+v", src, get, post)
				}
				if want := `"emp-` + strconv.FormatUint(epoch, 10) + `"`; get.ETag != want {
					t.Fatalf("GET %q ETag %q, want %q", src, get.ETag, want)
				}
				replay, err := c.SelectCached(ctx, "emp", src)
				if err != nil {
					t.Fatalf("GET replay %q: %v", src, err)
				}
				if !replay.NotModified || !reflect.DeepEqual(replay.SelectResponse, get.SelectResponse) {
					t.Fatalf("304 replay of %q diverges:\nreplay: %+v\nfirst:  %+v", src, replay, get)
				}
			}
		})
	}
}

func TestMetricsPlansSumRelationPlans(t *testing.T) {
	ctx := context.Background()
	c, _, stop := bootCachedServer(t, t.TempDir(), 1<<20)
	defer stop()
	seedReadHistory(t, c)
	if _, err := c.Create(ctx, namedSchema("ev")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	for vt := int64(0); vt < 5; vt++ {
		if _, err := c.Insert(ctx, "ev", insertReq(vt, "e", vt)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}

	const repeats = 3
	var sliceTouched int
	for i := 0; i < repeats; i++ {
		res, err := c.Timeslice(ctx, "emp", 300)
		if err != nil {
			t.Fatalf("Timeslice: %v", err)
		}
		sliceTouched = res.Touched
		if _, err := c.Select(ctx, "select count(*) from ev group by window(2)"); err != nil {
			t.Fatalf("aggregate: %v", err)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	sum := map[string]client.PlanMetrics{}
	for _, rel := range []string{"emp", "ev"} {
		info, err := c.Info(ctx, rel)
		if err != nil {
			t.Fatalf("Info(%s): %v", rel, err)
		}
		for kind, pm := range info.Plans {
			s := sum[kind]
			s.Requests += pm.Requests
			s.Touched += pm.Touched
			sum[kind] = s
		}
	}
	if !reflect.DeepEqual(m.Plans, sum) {
		t.Fatalf("/metrics plans diverge from the relations' own:\nmetrics:   %+v\nrelations: %+v", m.Plans, sum)
	}
	// The repeats were cache hits: each booked a request and 0 touched.
	info, err := c.Info(ctx, "emp")
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	var requests, touched uint64
	for _, pm := range info.Plans {
		requests += pm.Requests
		touched += pm.Touched
	}
	if requests != repeats || touched != uint64(sliceTouched) {
		t.Fatalf("emp books %d request(s), %d touched; want %d, %d (one scan, then hits)",
			requests, touched, repeats, sliceTouched)
	}
}
