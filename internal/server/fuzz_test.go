package server_test

// Fuzzing the HTTP decode surface: arbitrary bytes posted at the
// transaction and query endpoints, or sent as the raw query string of the
// GET read endpoints, must always produce a well-formed JSON response with
// a sensible status — never a panic escaping the handler and never a 500
// from the decode/convert path.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wire"
)

// newFuzzHandler builds an in-memory server with one event relation to aim
// payloads at.
func newFuzzHandler(f *testing.F) http.Handler {
	f.Helper()
	cat := catalog.New(catalog.Config{
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
	})
	srv := server.New(server.Config{Catalog: cat})
	rec := httptest.NewRecorder()
	body := `{"schema":{"name":"emp","valid_time":"event","granularity":1,` +
		`"invariant":[{"name":"name","type":"string"}],` +
		`"varying":[{"name":"salary","type":"int"}]}}`
	req := httptest.NewRequest("POST", "/v1/relations", bytes.NewReader([]byte(body)))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		f.Fatalf("seeding relation: status %d: %s", rec.Code, rec.Body)
	}
	return srv.Handler()
}

// post drives one payload through the handler as a request body.
func post(t *testing.T, h http.Handler, path string, payload []byte) {
	t.Helper()
	serve(t, h, httptest.NewRequest("POST", path, bytes.NewReader(payload)), payload)
}

// get drives one payload through the handler as the raw query string of a
// GET, bypassing URL parsing so malformed escapes reach the handler.
func get(t *testing.T, h http.Handler, path string, payload []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	req.URL.RawQuery = string(payload)
	serve(t, h, req, payload)
}

// serve applies the shared invariants: a valid status, JSON out, and no
// internal error.
func serve(t *testing.T, h http.Handler, req *http.Request, payload []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Fatalf("%s %s %q: status %d: %s", req.Method, req.URL.Path, payload, rec.Code, rec.Body)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s %s %q: non-JSON response %q", req.Method, req.URL.Path, payload, rec.Body)
	}
	if rec.Code >= 400 {
		var eb wire.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
			t.Fatalf("%s %s %q: error response without code: %s", req.Method, req.URL.Path, payload, rec.Body)
		}
	}
}

func FuzzDecodeTransaction(f *testing.F) {
	h := newFuzzHandler(f)
	f.Add([]byte(`{"vt":{"event":5},"invariant":[{"kind":"string","str":"a"}],"varying":[{"kind":"int","int":1}]}`))
	f.Add([]byte(`{"vt":{"start":5,"end":9}}`))
	f.Add([]byte(`{"vt":{}}`))
	f.Add([]byte(`{"es":1}`))
	f.Add([]byte(`{"es":0,"vt":{"event":-9223372036854775808}}`))
	f.Add([]byte(`{"object":18446744073709551615,"vt":{"event":5}}`))
	f.Add([]byte(`{"vt":{"event":5},"invariant":[{"kind":"zebra"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		post(t, h, "/v1/relations/emp/insert", payload)
		post(t, h, "/v1/relations/emp/delete", payload)
		post(t, h, "/v1/relations/emp/modify", payload)
	})
}

func FuzzDecodeQuery(f *testing.F) {
	h := newFuzzHandler(f)
	f.Add([]byte(`{"kind":"current"}`))
	f.Add([]byte(`{"kind":"timeslice","vt":5}`))
	f.Add([]byte(`{"kind":"rollback","tt":-1}`))
	f.Add([]byte(`{"kind":"asof","vt":9223372036854775807,"tt":5}`))
	f.Add([]byte(`{"kind":"sideways"}`))
	f.Add([]byte(`{"query":"select name from emp"}`))
	f.Add([]byte(`{"query":"select ((("}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`"kind"`))
	f.Add([]byte(`kind=asof&vt=5&tt=-1`))
	f.Add([]byte(`kind=timeslice&vt=9223372036854775807`))
	f.Add([]byte(`kind=rollback&tt=1e9`))
	f.Add([]byte(`query=select+name+from+emp+when+valid+at+5`))
	f.Add([]byte(`query=select+count(*)+from+emp+group+by+window(10)`))
	f.Add([]byte(`query=explain+select+*+from+emp`))
	f.Add([]byte(`query=select+*+from+other`))
	f.Add([]byte(`query=%zz&kind=%`))
	f.Add([]byte(`kind=current;vt=1&&=`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		post(t, h, "/v1/relations/emp/query", payload)
		post(t, h, "/v1/select", payload)
		get(t, h, "/v1/relations/emp/query", payload)
		get(t, h, "/v1/relations/emp/select", payload)
		get(t, h, "/v1/relations/emp/explain", payload)
	})
}

func FuzzBatchInsertRequest(f *testing.F) {
	h := newFuzzHandler(f)
	f.Add([]byte(`{"elements":[{"vt":{"event":5},"invariant":[{"kind":"string","str":"a"}],"varying":[{"kind":"int","int":1}]}]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}},{"vt":{"event":9}}],"keys":["a","b"]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"keys":["only"],"atomic":true}`))
	f.Add([]byte(`{"elements":[],"keys":[]}`))
	f.Add([]byte(`{"elements":[{"vt":{}}]}`))
	f.Add([]byte(`{"elements":[{"vt":{"start":9,"end":5}}]}`))
	f.Add([]byte(`{"keys":["orphan"]}`))
	f.Add([]byte(`{"elements":[{"vt":{"event":5}}],"keys":["a","b","c"]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		post(t, h, "/v1/relations/emp/elements:batch", payload)
	})
}
