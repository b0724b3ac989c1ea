package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
)

// CachedResponse is a query answer together with its freshness metadata.
type CachedResponse struct {
	QueryResponse
	// ETag is the server's validator for this result — the relation's
	// mutation epoch. The client stores it and revalidates with
	// If-None-Match on the next identical query.
	ETag string
	// NotModified reports that the server answered 304 and the body was
	// served from the client's local cache without the query running.
	NotModified bool
}

// CachedSelectResponse is a SELECT answer together with its freshness
// metadata, mirroring CachedResponse for the statement endpoint.
type CachedSelectResponse struct {
	SelectResponse
	// ETag is the server's validator — the relation's mutation epoch.
	ETag string
	// NotModified reports a 304 served from the client's local cache.
	NotModified bool
}

// conditional marks a call as a conditional GET (callOpts.cond) and
// receives the outcome of its decisive attempt. Conditional reads run
// under the client's retry policy like every other read.
type conditional struct {
	etag        string
	notModified bool
}

// validated is one remembered 200: the server's ETag and the raw body.
type validated struct {
	etag    string
	payload []byte
}

// SelectCached runs a tsql SELECT through the server's conditional GET
// endpoint. Like QueryCached, the first call fetches and remembers the
// result with its ETag; repeats revalidate with If-None-Match and an
// unmutated relation answers 304 from the local copy. Window aggregates
// are the intended tenant: their result sets are small (windows, not
// elements) but recomputation folds the whole relation, so a 304 saves
// the most where it matters. rel must name the relation the statement
// queries; the server rejects a mismatch.
func (c *Client) SelectCached(ctx context.Context, rel, query string) (CachedSelectResponse, error) {
	var out SelectResponse
	var cond conditional
	path := "/v1/relations/" + rel + "/select?query=" + url.QueryEscape(query)
	if err := c.call(ctx, http.MethodGet, path, nil, &out, callOpts{safe: true, cond: &cond}); err != nil {
		return CachedSelectResponse{}, err
	}
	return CachedSelectResponse{SelectResponse: out, ETag: cond.etag, NotModified: cond.notModified}, nil
}

// QueryCached runs one of the temporal query kinds through the server's
// conditional GET endpoint. The first call fetches and remembers the
// result with its ETag; subsequent identical calls revalidate with
// If-None-Match, so an unmutated relation answers 304 and the body comes
// from the client's cache — no query executes and no result set crosses
// the wire. A mutation changes the relation's epoch, the validator stops
// matching, and the next call fetches fresh.
func (c *Client) QueryCached(ctx context.Context, name string, req QueryRequest) (CachedResponse, error) {
	var out QueryResponse
	var cond conditional
	path := fmt.Sprintf("/v1/relations/%s/query?kind=%s&vt=%d&tt=%d", name, req.Kind, req.VT, req.TT)
	if err := c.call(ctx, http.MethodGet, path, nil, &out, callOpts{safe: true, cond: &cond}); err != nil {
		return CachedResponse{}, err
	}
	return CachedResponse{QueryResponse: out, ETag: cond.etag, NotModified: cond.notModified}, nil
}
