package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/workload"
)

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(mustNew(t, Config{DefaultR: 16}))
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// specBody is a create request's spec JSON body, for do's body argument.
func specBody(spec string) json.RawMessage { return json.RawMessage(spec) }

// specField returns the "spec" object of a create, restore, list or
// detail response.
func specField(resp map[string]any) map[string]any {
	spec, _ := resp["spec"].(map[string]any)
	return spec
}

func ingest(t *testing.T, ts *httptest.Server, id string, pts []geom.Point) {
	t.Helper()
	body := map[string]any{"points": toPairs(pts)}
	code, resp := do(t, "POST", ts.URL+"/v1/streams/"+id+"/points", body)
	if code != http.StatusOK {
		t.Fatalf("ingest: %d %v", code, resp)
	}
}

func toPairs(pts []geom.Point) [][2]float64 {
	out := make([][2]float64, len(pts))
	for i, p := range pts {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

func TestCreateListDelete(t *testing.T) {
	ts := newTestServer(t)
	code, resp := do(t, "PUT", ts.URL+"/v1/streams/s1", specBody(`{"kind":"adaptive","r":8}`))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, resp)
	}
	// Duplicate create conflicts.
	if code, _ := do(t, "PUT", ts.URL+"/v1/streams/s1", nil); code != http.StatusConflict {
		t.Errorf("duplicate create: %d", code)
	}
	// Bad kind.
	if code, _ := do(t, "PUT", ts.URL+"/v1/streams/s2", specBody(`{"kind":"wizard"}`)); code != http.StatusBadRequest {
		t.Errorf("bad kind: %d", code)
	}
	code, resp = do(t, "GET", ts.URL+"/v1/streams", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if n := len(resp["streams"].([]any)); n != 1 {
		t.Errorf("listed %d streams", n)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/v1/streams/s1", nil); code != http.StatusOK {
		t.Errorf("delete failed")
	}
	if code, _ := do(t, "DELETE", ts.URL+"/v1/streams/s1", nil); code != http.StatusNotFound {
		t.Errorf("double delete: %d", code)
	}
}

// TestCreateContract pins the create endpoint's one input: a spec JSON
// body, or an empty body for the server's default spec. The pre-spec
// algo/r/window query parameters are refused without creating anything,
// and a spec body persists the same meta.json bytes it always has (the
// algo/r head stays for older readers of the data directory).
func TestCreateContract(t *testing.T) {
	t.Run("legacy query parameters", func(t *testing.T) {
		dir := t.TempDir()
		srv := mustNew(t, durableConfig(dir))
		t.Cleanup(func() { _ = srv.Close() })
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		for _, q := range []string{"algo=uniform", "r=8", "window=100"} {
			code, body := doAuth(t, "PUT", ts.URL+"/v1/streams/legacy?"+q, "", nil)
			var env errorBody
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("?%s: %d %s", q, code, body)
			}
			if code != http.StatusBadRequest || env.Code != "bad_request" || !strings.Contains(env.Error, "spec JSON") {
				t.Errorf("?%s: %d %s, want 400 bad_request naming the spec body", q, code, body)
			}
		}
		_, listed := do(t, "GET", ts.URL+"/v1/streams", nil)
		if n := len(listed["streams"].([]any)); n != 0 {
			t.Errorf("refused creates left %d streams: %v", n, listed)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("refused creates left %d entries in the data directory (%v)", len(ents), err)
		}
	})

	t.Run("empty body is the default spec", func(t *testing.T) {
		for _, c := range []struct {
			cfg  Config
			want string
		}{
			{Config{DefaultR: 24}, `{"kind":"adaptive","r":24}`},
			{Config{DefaultR: 24, DefaultSpec: `{"kind":"sharded","shards":2,"inner":{"kind":"uniform","r":12}}`},
				`{"kind":"sharded","shards":2,"inner":{"kind":"uniform","r":12}}`},
		} {
			ts := httptest.NewServer(mustNew(t, c.cfg))
			code, body := doAuth(t, "PUT", ts.URL+"/v1/streams/d", "", nil)
			// Auto-create builds the same default.
			ingest(t, ts, "auto", []geom.Point{geom.Pt(0, 0)})
			_, auto := do(t, "GET", ts.URL+"/v1/streams/auto", nil)
			ts.Close()
			want := `{"id":"d","spec":` + c.want + "}\n"
			if code != http.StatusCreated || string(body) != want {
				t.Errorf("empty-body create = %d %s, want 201 %s", code, body, want)
			}
			if got, _ := json.Marshal(auto["spec"]); !sameJSON(t, got, c.want) {
				t.Errorf("auto-created spec = %s, want %s", got, c.want)
			}
		}
	})

	t.Run("spec body", func(t *testing.T) {
		dir := t.TempDir()
		srv := mustNew(t, durableConfig(dir))
		t.Cleanup(func() { _ = srv.Close() })
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		// meta.json bytes as every earlier release wrote them.
		for _, c := range []struct{ id, spec, meta string }{
			{"a", `{"kind":"adaptive","r":16}`, `{"algo":"adaptive","r":16,"spec":{"kind":"adaptive","r":16}}`},
			{"w", `{"kind":"windowed","r":8,"window":"100"}`, `{"algo":"windowed","r":8,"spec":{"kind":"windowed","r":8,"window":"100"}}`},
			{"s", `{"kind":"sharded","shards":2,"inner":{"kind":"adaptive","r":16}}`, `{"algo":"sharded","r":0,"spec":{"kind":"sharded","shards":2,"inner":{"kind":"adaptive","r":16}}}`},
			{"e", `{"kind":"exact"}`, `{"algo":"exact","r":0,"spec":{"kind":"exact"}}`},
		} {
			code, body := doAuth(t, "PUT", ts.URL+"/v1/streams/"+c.id, "", []byte(c.spec))
			if want := `{"id":"` + c.id + `","spec":` + c.spec + "}\n"; code != http.StatusCreated || string(body) != want {
				t.Errorf("create %s = %d %s, want 201 %s", c.id, code, body, want)
			}
			meta, err := os.ReadFile(filepath.Join(dir, c.id, "meta.json"))
			if err != nil || string(meta) != c.meta {
				t.Errorf("%s meta.json = %s (%v), want %s", c.id, meta, err, c.meta)
			}
		}
	})
}

// sameJSON reports whether got encodes the same JSON value as want.
func sameJSON(t *testing.T, got []byte, want string) bool {
	t.Helper()
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("decoding %s: %v", got, err)
	}
	if err := json.Unmarshal([]byte(want), &w); err != nil {
		t.Fatalf("decoding %s: %v", want, err)
	}
	return reflect.DeepEqual(g, w)
}

func TestIngestAndQueries(t *testing.T) {
	ts := newTestServer(t)
	pts := workload.Take(workload.Disk(1, geom.Pt(0, 0), 2), 5000)
	ingest(t, ts, "sensors", pts) // auto-created

	code, hull := do(t, "GET", ts.URL+"/v1/streams/sensors/hull", nil)
	if code != http.StatusOK {
		t.Fatalf("hull: %d %v", code, hull)
	}
	if hull["n"].(float64) != 5000 {
		t.Errorf("n = %v", hull["n"])
	}
	if area := hull["area"].(float64); area < 9 || area > 13 {
		t.Errorf("disk hull area = %v, want ≈ 4π", area)
	}

	code, diam := do(t, "GET", ts.URL+"/v1/streams/sensors/query?type=diameter", nil)
	if code != http.StatusOK {
		t.Fatalf("diameter: %d", code)
	}
	if d := diam["diameter"].(float64); math.Abs(d-4) > 0.2 {
		t.Errorf("diameter = %v, want ≈ 4", d)
	}

	code, ext := do(t, "GET", ts.URL+"/v1/streams/sensors/query?type=extent&theta=0", nil)
	if code != http.StatusOK || ext["extent"].(float64) < 3.5 {
		t.Errorf("extent: %d %v", code, ext)
	}

	code, circ := do(t, "GET", ts.URL+"/v1/streams/sensors/query?type=circle", nil)
	if code != http.StatusOK || math.Abs(circ["radius"].(float64)-2) > 0.2 {
		t.Errorf("circle: %d %v", code, circ)
	}

	// Unknown query type and missing theta.
	if code, _ := do(t, "GET", ts.URL+"/v1/streams/sensors/query?type=nope", nil); code != http.StatusBadRequest {
		t.Errorf("unknown query type: %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/streams/sensors/query?type=extent", nil); code != http.StatusBadRequest {
		t.Errorf("missing theta: %d", code)
	}
}

func TestIngestValidation(t *testing.T) {
	ts := newTestServer(t)
	// Empty body.
	code, _ := do(t, "POST", ts.URL+"/v1/streams/x/points", map[string]any{"points": [][2]float64{}})
	if code != http.StatusBadRequest {
		t.Errorf("empty batch: %d", code)
	}
	// NaN point (JSON can't carry NaN; use a huge string instead → decode error).
	req, _ := http.NewRequest("POST", ts.URL+"/v1/streams/x/points",
		bytes.NewReader([]byte(`{"points":[[null,0]]}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Log("null decoded as 0; accepted (documented behavior)")
	}
	// Garbage body.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/streams/x/points", bytes.NewReader([]byte(`{`)))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: %d", resp2.StatusCode)
	}
}

func TestPairQueries(t *testing.T) {
	ts := newTestServer(t)
	left := workload.Take(workload.Disk(2, geom.Pt(-5, 0), 1), 3000)
	right := workload.Take(workload.Disk(3, geom.Pt(5, 0), 1), 3000)
	ingest(t, ts, "left", left)
	ingest(t, ts, "right", right)

	code, dist := do(t, "GET", ts.URL+"/v1/pairs/query?a=left&b=right&type=distance", nil)
	if code != http.StatusOK {
		t.Fatalf("distance: %d %v", code, dist)
	}
	if d := dist["distance"].(float64); math.Abs(d-8) > 0.3 {
		t.Errorf("pair distance = %v, want ≈ 8", d)
	}

	code, sep := do(t, "GET", ts.URL+"/v1/pairs/query?a=left&b=right&type=separable", nil)
	if code != http.StatusOK || sep["separable"] != true {
		t.Errorf("separable: %d %v", code, sep)
	}
	if _, ok := sep["line"]; !ok {
		t.Error("no certificate line")
	}

	code, ov := do(t, "GET", ts.URL+"/v1/pairs/query?a=left&b=right&type=overlap", nil)
	if code != http.StatusOK || ov["overlap_area"].(float64) != 0 {
		t.Errorf("overlap: %d %v", code, ov)
	}

	code, ct := do(t, "GET", ts.URL+"/v1/pairs/query?a=left&b=right&type=contains", nil)
	if code != http.StatusOK || ct["a_contains_b"] != false {
		t.Errorf("contains: %d %v", code, ct)
	}

	// Missing stream.
	if code, _ := do(t, "GET", ts.URL+"/v1/pairs/query?a=left&b=ghost&type=distance", nil); code != http.StatusNotFound {
		t.Errorf("ghost pair: %d", code)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	ts := newTestServer(t)
	ingest(t, ts, "s", workload.Take(workload.Gaussian(4, geom.Point{}, 1), 2000))
	code, snap := do(t, "GET", ts.URL+"/v1/streams/s/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, snap)
	}
	if snap["kind"] != "adaptive" {
		t.Errorf("kind = %v", snap["kind"])
	}
	angles := snap["angles"].([]any)
	points := snap["points"].([]any)
	if len(angles) != len(points) || len(angles) == 0 {
		t.Errorf("snapshot sizes: %d angles, %d points", len(angles), len(points))
	}
	// Exact streams do not snapshot.
	if code, _ := do(t, "PUT", ts.URL+"/v1/streams/ex", specBody(`{"kind":"exact"}`)); code != http.StatusCreated {
		t.Fatal("create exact")
	}
	ingest(t, ts, "ex", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)})
	if code, _ := do(t, "GET", ts.URL+"/v1/streams/ex/snapshot", nil); code != http.StatusBadRequest {
		t.Errorf("exact snapshot: %d", code)
	}
}

func TestStreamLimit(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{DefaultR: 8, MaxStreams: 2}))
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if code, _ := do(t, "PUT", fmt.Sprintf("%s/v1/streams/s%d", ts.URL, i), nil); code != http.StatusCreated {
			t.Fatalf("create %d failed", i)
		}
	}
	if code, _ := do(t, "PUT", ts.URL+"/v1/streams/s2", nil); code != http.StatusInsufficientStorage {
		t.Errorf("over-limit create: %d", code)
	}
}

func TestBatchLimit(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{DefaultR: 8, MaxBatch: 10}))
	defer ts.Close()
	pts := workload.Take(workload.Disk(5, geom.Point{}, 1), 11)
	code, _ := do(t, "POST", ts.URL+"/v1/streams/s/points", map[string]any{"points": toPairs(pts)})
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d", code)
	}
}

func TestWindowedStream(t *testing.T) {
	srv := mustNew(t, Config{DefaultR: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, resp := do(t, "PUT", ts.URL+"/v1/streams/w1", specBody(`{"kind":"windowed","r":8,"window":"500"}`))
	if code != http.StatusCreated {
		t.Fatalf("create windowed: %d %v", code, resp)
	}
	if specField(resp)["window"] != "500" {
		t.Fatalf("create response lacks window: %v", resp)
	}

	// An early faraway phase followed by a long local phase: the windowed
	// hull must forget the early phase.
	ingest(t, ts, "w1", workload.Take(workload.Disk(1, geom.Pt(1000, 0), 1), 1000))
	ingest(t, ts, "w1", workload.Take(workload.Disk(2, geom.Pt(0, 0), 1), 2000))

	code, hull := do(t, "GET", ts.URL+"/v1/streams/w1/hull", nil)
	if code != http.StatusOK {
		t.Fatalf("hull: %d %v", code, hull)
	}
	for _, v := range hull["vertices"].([]any) {
		x := v.([]any)[0].(float64)
		if x > 100 {
			t.Fatalf("windowed hull kept expired vertex at x=%g", x)
		}
	}

	// List reports the window spec and a live count near the window.
	_, listed := do(t, "GET", ts.URL+"/v1/streams", nil)
	info := listed["streams"].([]any)[0].(map[string]any)
	if specField(info)["window"] != "500" {
		t.Fatalf("list lacks window spec: %v", info)
	}
	wc := int(info["window_count"].(float64))
	if wc < 500 || wc > 2000 {
		t.Fatalf("window_count = %d, want near 500", wc)
	}
	if n := int(info["n"].(float64)); n != 3000 {
		t.Fatalf("n = %d, want lifetime 3000", n)
	}

	// Windowed streams still serve snapshots and single-stream queries.
	if code, _ := do(t, "GET", ts.URL+"/v1/streams/w1/snapshot", nil); code != http.StatusOK {
		t.Errorf("windowed snapshot: %d", code)
	}
	code, q := do(t, "GET", ts.URL+"/v1/streams/w1/query?type=diameter", nil)
	if code != http.StatusOK {
		t.Fatalf("windowed diameter: %d %v", code, q)
	}
	if d := q["diameter"].(float64); d > 10 {
		t.Errorf("windowed diameter %g still spans the expired phase", d)
	}
}

func TestWindowedCreateValidation(t *testing.T) {
	ts := newTestServer(t)
	for id, c := range map[string]struct {
		spec string
		want int
	}{
		"bad1": {`{"kind":"windowed","r":8,"window":"abc"}`, http.StatusBadRequest},
		"bad2": {`{"kind":"windowed","r":8,"window":"0"}`, http.StatusBadRequest},
		"bad3": {`{"kind":"windowed","r":8,"window":"-5s"}`, http.StatusBadRequest},
		"bad4": {`{"kind":"uniform","r":8,"window":"100"}`, http.StatusBadRequest},
		"bad5": {`{"kind":"exact","window":"100"}`, http.StatusBadRequest},
		"bad6": {`{"kind":"windowed","r":8}`, http.StatusBadRequest},
		"ok1":  {`{"kind":"windowed","r":16,"window":"100"}`, http.StatusCreated},
		"ok2":  {`{"kind":"windowed","r":16,"window":"30s"}`, http.StatusCreated},
	} {
		if code, resp := do(t, "PUT", ts.URL+"/v1/streams/"+id, specBody(c.spec)); code != c.want {
			t.Errorf("PUT %s %s: got %d (%v), want %d", id, c.spec, code, resp, c.want)
		}
	}
}

func TestTimeWindowSweep(t *testing.T) {
	srv := mustNew(t, Config{DefaultR: 16, SweepInterval: 10 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, resp := do(t, "PUT", ts.URL+"/v1/streams/tw", specBody(`{"kind":"windowed","r":8,"window":"50ms"}`)); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, resp)
	}
	ingest(t, ts, "tw", workload.Take(workload.Disk(1, geom.Point{}, 1), 200))

	// With no further inserts, the background sweeper must age the whole
	// window out.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, listed := do(t, "GET", ts.URL+"/v1/streams", nil)
		info := listed["streams"].([]any)[0].(map[string]any)
		if _, has := info["window_count"]; !has { // omitempty: count reached 0
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeper never expired the idle window: %v", info)
		}
		time.Sleep(20 * time.Millisecond)
	}
	code, hull := do(t, "GET", ts.URL+"/v1/streams/tw/hull", nil)
	if code != http.StatusOK {
		t.Fatalf("hull: %d", code)
	}
	if vs, ok := hull["vertices"].([]any); ok && len(vs) != 0 {
		t.Fatalf("hull still has %d vertices after expiry", len(vs))
	}
}

// TestRestoredTimeWindowIsSwept: a time window installed by a snapshot
// restore gets the background sweeper just like a created one. Nothing
// reads or writes the stream, so only the sweeper can age its points
// out and move the summary's epoch.
func TestRestoredTimeWindowIsSwept(t *testing.T) {
	srv := mustNew(t, Config{DefaultR: 16, SweepInterval: 10 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	src, err := streamhull.New(streamhull.Spec{Kind: streamhull.KindWindowed, R: 8, Window: "50ms"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.InsertBatch(workload.Take(workload.Disk(1, geom.Point{}, 1), 200)); err != nil {
		t.Fatal(err)
	}
	body := mustEncode(t, src.(streamhull.Snapshotter).Snapshot())
	resp, err := http.Post(ts.URL+"/v1/streams/tw/snapshot", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore: %d", resp.StatusCode)
	}
	st, err := srv.get("", "tw", false)
	if err != nil {
		t.Fatal(err)
	}
	wh := st.summary().(*streamhull.WindowedHull)
	before := wh.Epoch()
	deadline := time.Now().Add(5 * time.Second)
	for wh.Epoch() == before {
		if time.Now().After(deadline) {
			t.Fatalf("restored time window never swept: epoch stayed %d", before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPairQueryValidation(t *testing.T) {
	ts := newTestServer(t)
	ingest(t, ts, "pa", workload.Take(workload.Disk(1, geom.Point{}, 1), 10))
	if code, _ := do(t, "GET", ts.URL+"/v1/pairs/query?a=pa&type=distance", nil); code != http.StatusBadRequest {
		t.Errorf("missing b: got %d, want 400", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/pairs/query?a=pa&b=ghost&type=distance", nil); code != http.StatusNotFound {
		t.Errorf("unknown b: got %d, want 404", code)
	}
}

func TestBodyLimit(t *testing.T) {
	srv := mustNew(t, Config{DefaultR: 16, MaxBodyBytes: 1024})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	big := workload.Take(workload.Disk(1, geom.Point{}, 1), 1000)
	body := map[string]any{"points": toPairs(big)}
	code, resp := do(t, "POST", ts.URL+"/v1/streams/big/points", body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d (%v), want 413", code, resp)
	}
	if _, ok := resp["error"]; !ok {
		t.Fatalf("oversized body error is not structured JSON: %v", resp)
	}
}
