package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/streamgeom/streamhull/geom"
)

// conn is one load-generator connection: an HTTP client whose transport
// keeps a single keep-alive TCP connection to the server.
type conn struct {
	hc    *http.Client
	base  string // "http://127.0.0.1:port"
	token string // bearer token ("" = none)
	// non2xx counts every non-2xx response this connection received,
	// the client side of the fail_frac cross-check against /metrics.
	non2xx int

	// Traced runs only: rec receives a client span per request, and the
	// first keepMax writes and reads are kept for the server replay.
	rec     *recorder
	keepMax int
	kept    map[string][]keptRequest // by span class: "write", "read"
}

// keptRequest is a request a traced run replays into a fresh server.
type keptRequest struct {
	method, path, ctype string
	body                []byte
}

// class names a request's span class: point POSTs and pushes are
// writes, GETs of the API are reads, the rest (creates) are setup.
func class(method, path string) string {
	switch {
	case method == http.MethodPost:
		return "write"
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/"):
		return "read"
	}
	return "setup"
}

func newConn(base, token string) *conn {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, token: token}
}

// close releases the connection.
func (c *conn) close() { c.hc.CloseIdleConnections() }

// httpStatusError is a non-2xx answer.
type httpStatusError struct {
	Method, Path string
	Status       int
	Body         string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.Method, e.Path, e.Status, strings.TrimSpace(e.Body))
}

// do sends one request and returns the response body of a 2xx answer.
// Anything else is an *httpStatusError.
func (c *conn) do(method, path, ctype string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	var reqID uint64
	var start time.Time
	if c.rec != nil {
		reqID = c.rec.newReq()
		req.Header.Set(reqHeader, strconv.FormatUint(reqID, 10))
		cl := class(method, path)
		if c.keepMax > 0 && cl != "setup" && len(c.kept[cl]) < c.keepMax {
			c.kept[cl] = append(c.kept[cl], keptRequest{method, path, ctype, append([]byte(nil), body...)})
		}
		start = time.Now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.rec != nil {
		c.rec.record("client."+class(method, path), reqID, start)
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		c.non2xx++
		return nil, &httpStatusError{Method: method, Path: path, Status: resp.StatusCode, Body: string(out)}
	}
	return out, nil
}

// appendPointsJSON appends the ingest body {"points":[[x,y],...]}.
// Coordinates use the shortest round-trip form, so the server parses
// back exactly the float64s the generator produced.
func appendPointsJSON(b []byte, pts []geom.Point) []byte {
	b = append(b, `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// hullResponse is the body of GET /v1/streams/{id}/hull.
type hullResponse struct {
	Vertices [][2]float64 `json:"vertices"`
	N        int          `json:"n"`
}

func (c *conn) hull(id string) (hullResponse, []byte, error) {
	raw, err := c.do(http.MethodGet, "/v1/streams/"+id+"/hull", "", nil)
	if err != nil {
		return hullResponse{}, nil, err
	}
	var h hullResponse
	if err := json.Unmarshal(raw, &h); err != nil {
		return hullResponse{}, nil, fmt.Errorf("hull %s: %w", id, err)
	}
	return h, raw, nil
}

// create makes a stream with an explicit spec body.
func (c *conn) create(id, specJSON string) error {
	_, err := c.do(http.MethodPut, "/v1/streams/"+id, "application/json", []byte(specJSON))
	return err
}

// scrape is one parsed /metrics page: sample values keyed by the series
// exactly as printed (name plus label set).
type scrape map[string]float64

func (c *conn) metrics() (scrape, error) {
	raw, err := c.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	return parseMetrics(raw)
}

// parseMetrics reads the Prometheus text exposition.
func parseMetrics(raw []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family whose label set contains
// all of the given `name="value"` pairs.
func (s scrape) sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		if k != family && !strings.HasPrefix(k, family+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// non2xx counts API answers outside 2xx in streamhull_http_requests_total.
func (s scrape) non2xx() float64 {
	total := 0.0
	for k, v := range s {
		if !strings.HasPrefix(k, "streamhull_http_requests_total{") {
			continue
		}
		i := strings.Index(k, `code="`)
		if i < 0 || k[i+6] != '2' {
			total += v
		}
	}
	return total
}
