package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/streamgeom/streamhull/internal/auth"
)

// Service-layer tests: bearer auth, tenant namespacing, quotas, rate
// limiting, the uniform error envelope, and the observability plane.

// testTokens is the two-tenant credential set the matrix tests use.
const testTokens = "acme-admin=acme:all;acme-reader=acme:read;acme-pusher=acme:push;globex-admin=globex:all"

func newAuthServer(t *testing.T, quotas auth.Quotas) *httptest.Server {
	t.Helper()
	provider, err := auth.ParseStaticTokens(testTokens)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mustNew(t, Config{DefaultR: 16, Auth: provider, Quotas: quotas}))
	t.Cleanup(ts.Close)
	return ts
}

// adaptive8 is the spec body the tests create plain streams with.
var adaptive8 = []byte(`{"kind":"adaptive","r":8}`)

// doAuth issues one request with a bearer token, returning the status
// and raw body.
func doAuth(t *testing.T, method, url, token string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestAuthRoleMatrix(t *testing.T) {
	ts := newAuthServer(t, auth.Quotas{})
	// Seed a stream and a fan-in aggregate in acme's namespace.
	if code, body := doAuth(t, "PUT", ts.URL+"/v1/streams/clicks", "acme-admin", adaptive8); code != http.StatusCreated {
		t.Fatalf("seed create: %d %s", code, body)
	}
	if code, body := doAuth(t, "PUT", ts.URL+"/v1/streams/agg", "acme-admin",
		[]byte(`{"kind":"fanin","r":8}`)); code != http.StatusCreated {
		t.Fatalf("seed aggregate: %d %s", code, body)
	}
	if code, body := doAuth(t, "POST", ts.URL+"/v1/streams/clicks/points", "acme-admin",
		[]byte(`{"points":[[0,0],[1,0],[0,1]]}`)); code != http.StatusOK {
		t.Fatalf("seed points: %d %s", code, body)
	}

	pushURL := ts.URL + "/v1/streams/agg/snapshot?source=n1&epoch=%d"
	pushBody := []byte(`{"kind":"adaptive","r":8,"n":1,"angles":[0],"points":[{"X":2,"Y":2}]}`)
	epoch := uint64(0)
	push := func(token string) (int, []byte) {
		epoch++
		return doAuth(t, "POST", fmt.Sprintf(pushURL, epoch), token, pushBody)
	}

	cases := []struct {
		name  string
		token string
		do    func() (int, []byte)
		want  int
	}{
		// No or wrong token: 401 everywhere.
		{"anon read", "", func() (int, []byte) { return doAuth(t, "GET", ts.URL+"/v1/streams", "", nil) }, 401},
		{"bad token", "nope", func() (int, []byte) { return doAuth(t, "GET", ts.URL+"/v1/streams", "nope", nil) }, 401},
		{"anon push", "", func() (int, []byte) { return push("") }, 401},

		// Reader: reads pass, writes and pushes 403.
		{"reader list", "acme-reader", func() (int, []byte) { return doAuth(t, "GET", ts.URL+"/v1/streams", "acme-reader", nil) }, 200},
		{"reader hull", "acme-reader", func() (int, []byte) { return doAuth(t, "GET", ts.URL+"/v1/streams/clicks/hull", "acme-reader", nil) }, 200},
		{"reader query", "acme-reader", func() (int, []byte) {
			return doAuth(t, "GET", ts.URL+"/v1/streams/clicks/query?type=diameter", "acme-reader", nil)
		}, 200},
		{"reader ingest", "acme-reader", func() (int, []byte) {
			return doAuth(t, "POST", ts.URL+"/v1/streams/clicks/points", "acme-reader", []byte(`{"points":[[3,3]]}`))
		}, 403},
		{"reader create", "acme-reader", func() (int, []byte) {
			return doAuth(t, "PUT", ts.URL+"/v1/streams/more", "acme-reader", adaptive8)
		}, 403},
		{"reader delete", "acme-reader", func() (int, []byte) {
			return doAuth(t, "DELETE", ts.URL+"/v1/streams/clicks", "acme-reader", nil)
		}, 403},
		{"reader push", "acme-reader", func() (int, []byte) { return push("acme-reader") }, 403},

		// Pusher: source pushes pass, plain writes and reads 403. A
		// pusher may create fan-in aggregates (first contact) but not
		// regular streams.
		{"pusher push", "acme-pusher", func() (int, []byte) { return push("acme-pusher") }, 200},
		{"pusher list", "acme-pusher", func() (int, []byte) { return doAuth(t, "GET", ts.URL+"/v1/streams", "acme-pusher", nil) }, 403},
		{"pusher ingest", "acme-pusher", func() (int, []byte) {
			return doAuth(t, "POST", ts.URL+"/v1/streams/clicks/points", "acme-pusher", []byte(`{"points":[[3,3]]}`))
		}, 403},
		{"pusher create fanin", "acme-pusher", func() (int, []byte) {
			return doAuth(t, "PUT", ts.URL+"/v1/streams/agg2", "acme-pusher", []byte(`{"kind":"fanin","r":8}`))
		}, 201},
		{"pusher create regular", "acme-pusher", func() (int, []byte) {
			return doAuth(t, "PUT", ts.URL+"/v1/streams/plain", "acme-pusher", adaptive8)
		}, 403},

		// Cross-tenant: globex shares ids without collision and cannot
		// see acme's streams.
		{"other tenant same id", "globex-admin", func() (int, []byte) {
			return doAuth(t, "PUT", ts.URL+"/v1/streams/clicks", "globex-admin", adaptive8)
		}, 201},
		{"other tenant detail", "globex-admin", func() (int, []byte) {
			return doAuth(t, "GET", ts.URL+"/v1/streams/agg", "globex-admin", nil)
		}, 404},
		{"other tenant push", "globex-admin", func() (int, []byte) { return push("globex-admin") }, 404},
	}
	for _, c := range cases {
		if code, body := c.do(); code != c.want {
			t.Errorf("%s: status = %d, want %d (body %s)", c.name, code, c.want, body)
		}
	}

	// globex's list shows only its own stream.
	_, body := doAuth(t, "GET", ts.URL+"/v1/streams", "globex-admin", nil)
	var list struct {
		Streams []struct {
			ID string `json:"id"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("list body: %v", err)
	}
	if len(list.Streams) != 1 || list.Streams[0].ID != "clicks" {
		t.Errorf("globex list = %+v, want exactly its own clicks", list.Streams)
	}
}

// TestRejectedPushNeverMutates is the acceptance check: an
// unauthenticated or wrong-tenant fan-in push is rejected and the
// aggregate's state does not move.
func TestRejectedPushNeverMutates(t *testing.T) {
	ts := newAuthServer(t, auth.Quotas{})
	if code, body := doAuth(t, "PUT", ts.URL+"/v1/streams/agg", "acme-admin",
		[]byte(`{"kind":"fanin","r":8}`)); code != http.StatusCreated {
		t.Fatalf("create aggregate: %d %s", code, body)
	}
	push := []byte(`{"kind":"adaptive","r":8,"n":3,"angles":[0,2,4],"points":[{"X":0,"Y":0},{"X":1,"Y":0},{"X":0,"Y":1}]}`)
	if code, _ := doAuth(t, "POST", ts.URL+"/v1/streams/agg/snapshot?source=n1&epoch=1", "", push); code != http.StatusUnauthorized {
		t.Fatalf("anonymous push: %d, want 401", code)
	}
	if code, _ := doAuth(t, "POST", ts.URL+"/v1/streams/agg/snapshot?source=n1&epoch=2", "globex-admin", push); code != http.StatusNotFound {
		t.Fatalf("wrong-tenant push: %d, want 404 (agg is not in globex's namespace)", code)
	}
	if code, _ := doAuth(t, "POST", ts.URL+"/v1/streams/agg/snapshot?source=n1&epoch=3", "acme-reader", push); code != http.StatusForbidden {
		t.Fatalf("read-only push: %d, want 403", code)
	}
	code, body := doAuth(t, "GET", ts.URL+"/v1/streams/agg", "acme-admin", nil)
	if code != http.StatusOK {
		t.Fatalf("detail: %d %s", code, body)
	}
	var detail struct {
		N int `json:"n"`
	}
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.N != 0 {
		t.Errorf("aggregate n = %d after rejected pushes, want 0", detail.N)
	}
}

func TestStreamAndByteQuotas(t *testing.T) {
	ts := newAuthServer(t, auth.Quotas{MaxStreams: 1, MaxBytes: 64})
	if code, body := doAuth(t, "PUT", ts.URL+"/v1/streams/a", "acme-admin", adaptive8); code != http.StatusCreated {
		t.Fatalf("first create: %d %s", code, body)
	}
	code, body := doAuth(t, "PUT", ts.URL+"/v1/streams/b", "acme-admin", adaptive8)
	if code != http.StatusInsufficientStorage {
		t.Fatalf("second create: %d %s, want 507", code, body)
	}
	assertEnvelope(t, body, "quota_streams")
	// Another tenant is unaffected.
	if code, _ := doAuth(t, "PUT", ts.URL+"/v1/streams/b", "globex-admin", adaptive8); code != http.StatusCreated {
		t.Errorf("other tenant blocked by acme's stream quota: %d", code)
	}
	// 64 bytes = 4 points; a 5-point batch busts the byte quota.
	code, body = doAuth(t, "POST", ts.URL+"/v1/streams/a/points", "acme-admin",
		[]byte(`{"points":[[0,0],[1,0],[0,1],[1,1],[2,2]]}`))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-quota ingest: %d %s, want 413", code, body)
	}
	assertEnvelope(t, body, "quota_bytes")
	// An in-quota batch still lands.
	if code, body := doAuth(t, "POST", ts.URL+"/v1/streams/a/points", "acme-admin",
		[]byte(`{"points":[[0,0],[1,0],[0,1]]}`)); code != http.StatusOK {
		t.Fatalf("in-quota ingest: %d %s", code, body)
	}
	// Deleting the stream returns slot and bytes.
	if code, _ := doAuth(t, "DELETE", ts.URL+"/v1/streams/a", "acme-admin", nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if code, body := doAuth(t, "PUT", ts.URL+"/v1/streams/b", "acme-admin", adaptive8); code != http.StatusCreated {
		t.Errorf("create after delete: %d %s (slot not returned?)", code, body)
	}
	if code, body := doAuth(t, "POST", ts.URL+"/v1/streams/b/points", "acme-admin",
		[]byte(`{"points":[[0,0],[1,0],[0,1],[1,1]]}`)); code != http.StatusOK {
		t.Errorf("full-quota ingest after delete: %d %s (bytes not returned?)", code, body)
	}
}

func TestRateLimitBurst(t *testing.T) {
	// Slow refill so the test never races a real token drip; the open
	// provider means the root tenant is the one being limited.
	ts := httptest.NewServer(mustNew(t, Config{DefaultR: 16,
		Quotas: auth.Quotas{RatePerSec: 0.5, Burst: 3}}))
	t.Cleanup(ts.Close)

	limited := 0
	var retryAfter string
	for i := 0; i < 6; i++ {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/streams", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			limited++
			retryAfter = resp.Header.Get("Retry-After")
		default:
			t.Fatalf("request %d: %d", i, resp.StatusCode)
		}
	}
	if limited != 3 {
		t.Errorf("burst of 6 at burst-capacity 3: %d limited, want 3", limited)
	}
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", retryAfter)
	}
}

// assertEnvelope checks a non-2xx body parses as the uniform
// {"error": ..., "code": ...} envelope with the expected code.
func assertEnvelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body %s: %v", body, err)
	}
	if env.Error == "" {
		t.Errorf("error body %s: empty error message", body)
	}
	if env.Code != wantCode {
		t.Errorf("error body %s: code = %q, want %q", body, env.Code, wantCode)
	}
}

// TestErrorEnvelopeEveryEndpoint drives one failing request through
// each endpoint and asserts the response is always the same
// machine-readable envelope.
func TestErrorEnvelopeEveryEndpoint(t *testing.T) {
	open := newTestServer(t)
	// Seed: an adaptive stream with points, an empty one, an aggregate.
	ingestSeed := func() {
		for _, id := range []string{"full", "none"} {
			if code, body := doAuth(t, "PUT", open.URL+"/v1/streams/"+id, "", adaptive8); code != http.StatusCreated {
				t.Fatalf("seed %s: %d %s", id, code, body)
			}
		}
		if code, _ := doAuth(t, "POST", open.URL+"/v1/streams/full/points", "",
			[]byte(`{"points":[[0,0],[1,0],[0,1]]}`)); code != http.StatusOK {
			t.Fatal("seed points")
		}
		if code, _ := doAuth(t, "PUT", open.URL+"/v1/streams/agg", "",
			[]byte(`{"kind":"fanin","r":8}`)); code != http.StatusCreated {
			t.Fatal("seed aggregate")
		}
		if code, _ := doAuth(t, "POST", open.URL+"/v1/streams/agg/snapshot?source=n1&epoch=5", "",
			[]byte(`{"kind":"adaptive","r":8,"n":1,"angles":[0],"points":[{"X":2,"Y":2}]}`)); code != http.StatusOK {
			t.Fatal("seed push")
		}
	}
	ingestSeed()

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantTag  string
	}{
		{"create bad spec", "PUT", "/v1/streams/x", `{"kind":"wizard"}`, 400, "bad_request"},
		{"create legacy query", "PUT", "/v1/streams/x?algo=uniform", "", 400, "bad_request"},
		{"create duplicate", "PUT", "/v1/streams/full", string(adaptive8), 409, "conflict"},
		{"delete missing", "DELETE", "/v1/streams/ghost", "", 404, "not_found"},
		{"detail missing", "GET", "/v1/streams/ghost", "", 404, "not_found"},
		{"points bad body", "POST", "/v1/streams/full/points", `{"points":`, 400, "bad_request"},
		{"points into aggregate", "POST", "/v1/streams/agg/points", `{"points":[[0,0]]}`, 409, "conflict"},
		{"hull missing", "GET", "/v1/streams/ghost/hull", "", 404, "not_found"},
		{"query missing", "GET", "/v1/streams/ghost/query?type=diameter", "", 404, "not_found"},
		{"query bad type", "GET", "/v1/streams/full/query?type=volume", "", 400, "bad_request"},
		{"snapshot missing", "GET", "/v1/streams/ghost/snapshot", "", 404, "not_found"},
		{"restore bad body", "POST", "/v1/streams/x/snapshot", `{"kind":`, 400, "bad_request"},
		{"push bad epoch", "POST", "/v1/streams/agg/snapshot?source=n1&epoch=soon", "{}", 400, "bad_request"},
		{"push stale epoch", "POST", "/v1/streams/agg/snapshot?source=n1&epoch=4",
			`{"kind":"adaptive","r":8,"n":1,"angles":[0],"points":[{"X":2,"Y":2}]}`, 409, "stale_epoch"},
		{"push into non-aggregate", "POST", "/v1/streams/full/snapshot?source=n1&epoch=9", `{}`, 409, "conflict"},
		{"drop source missing stream", "DELETE", "/v1/streams/ghost/sources/n1", "", 404, "not_found"},
		{"drop missing source", "DELETE", "/v1/streams/agg/sources/ghost", "", 404, "not_found"},
		{"pair missing id", "GET", "/v1/pairs/query?a=full&type=distance", "", 400, "bad_request"},
		{"pair missing stream", "GET", "/v1/pairs/query?a=full&b=ghost&type=distance", "", 404, "not_found"},
		{"pair empty stream", "GET", "/v1/pairs/query?a=full&b=none&type=distance", "", 409, "empty_streams"},
		{"pair bad type", "GET", "/v1/pairs/query?a=full&b=full&type=volume", "", 400, "bad_request"},
	}
	for _, c := range cases {
		var body []byte
		if c.body != "" {
			body = []byte(c.body)
		}
		code, got := doAuth(t, c.method, open.URL+c.path, "", body)
		if code != c.wantCode {
			t.Errorf("%s: status = %d, want %d (body %s)", c.name, code, c.wantCode, got)
			continue
		}
		assertEnvelope(t, got, c.wantTag)
	}

	// The authenticated failure shapes use their own server.
	authed := newAuthServer(t, auth.Quotas{})
	code, body := doAuth(t, "GET", authed.URL+"/v1/streams", "", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("anon list: %d", code)
	}
	assertEnvelope(t, body, "unauthenticated")
	code, body = doAuth(t, "DELETE", authed.URL+"/v1/streams/x", "acme-reader", nil)
	if code != http.StatusForbidden {
		t.Fatalf("reader delete: %d", code)
	}
	assertEnvelope(t, body, "forbidden")
}

func TestMetricsAndHealthEndpoints(t *testing.T) {
	ts := newTestServer(t)
	// Generate traffic so the counters have something to show.
	if code, _ := doAuth(t, "POST", ts.URL+"/v1/streams/m/points", "",
		[]byte(`{"points":[[0,0],[1,0],[0,1]]}`)); code != http.StatusOK {
		t.Fatal("seed ingest")
	}
	if code, _ := doAuth(t, "GET", ts.URL+"/v1/streams/m/query?type=diameter", "", nil); code != http.StatusOK {
		t.Fatal("seed query")
	}

	for _, probe := range []string{"/healthz", "/readyz"} {
		code, body := doAuth(t, "GET", ts.URL+probe, "", nil)
		if code != http.StatusOK {
			t.Errorf("%s = %d %s", probe, code, body)
		}
	}

	code, body := doAuth(t, "GET", ts.URL+"/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	page := string(body)
	for _, want := range []string{
		`streamhull_http_requests_total{endpoint="points",code="200"} 1`,
		`streamhull_ingest_points_total{tenant=""} 3`,
		`streamhull_http_request_seconds_bucket`,
		`streamhull_tenant_streams{tenant=""} 1`,
		`streamhull_querycache_reads_total`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// DisableObservability removes the routes.
	dark := httptest.NewServer(mustNew(t, Config{DefaultR: 16, DisableObservability: true}))
	t.Cleanup(dark.Close)
	if code, _ := doAuth(t, "GET", dark.URL+"/metrics", "", nil); code != http.StatusNotFound {
		t.Errorf("disabled /metrics = %d, want 404", code)
	}
}

// TestNotReadyEnvelope pins the API-route 503 during startup recovery
// to the uniform error envelope: every endpoint behind serveAuthed
// answers code "not_ready" with a Retry-After hint and the same
// recovery progress /readyz reports, then recovers to normal service
// the moment recovery finishes.
func TestNotReadyEnvelope(t *testing.T) {
	srv := mustNew(t, Config{DefaultR: 16})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	srv.health.StartRecovery(5)
	srv.health.SetRecovered(2)

	for _, path := range []string{
		"/v1/streams",
		"/v1/streams/x/hull",
		"/v1/pairs/query?a=x&b=y&type=distance",
	} {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while starting: %d %s", path, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("%s while starting: no Retry-After", path)
		}
		assertEnvelope(t, body, "not_ready")
		var env struct {
			Recovery *struct {
				Recovered int `json:"recovered"`
				Total     int `json:"total"`
			} `json:"recovery"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s body %s: %v", path, body, err)
		}
		if env.Recovery == nil || env.Recovery.Recovered != 2 || env.Recovery.Total != 5 {
			t.Errorf("%s recovery progress = %+v, want 2/5", path, env.Recovery)
		}
	}

	srv.health.FinishRecovery()
	if code, body := doAuth(t, "GET", ts.URL+"/v1/streams", "", nil); code != http.StatusOK {
		t.Fatalf("list after recovery: %d %s", code, body)
	}
}
