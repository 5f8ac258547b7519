// Command hullcli summarizes a point stream read from stdin (one "x,y"
// pair per line, '#' comments allowed) and answers extremal queries from
// the summary.
//
// Usage:
//
//	generate-points | hullcli -query diameter,width
//	hullcli -spec '{"kind":"uniform","r":64}' -hull < points.csv
//	tail -f telemetry.csv | hullcli -spec '{"kind":"windowed","r":32,"window":"10000"}' -query diameter
//	hullcli -spec '{"kind":"sharded","shards":4,"inner":{"kind":"adaptive","r":32}}' < points.csv
//	hullcli replay -dir /var/lib/hullserver/mystream -query diameter
//	hullcli push -to http://agg:8080 -stream clicks -source node7 < points.csv
//	hullcli relay -from http://region:8080 -to http://global:8080 -source region-eu
//	hullcli streams -to http://hull:8080 -limit 50 -all
//	hullcli stats -to http://hull:8080
//
// -spec names the summary as streamhull.Spec JSON and can describe
// every summary kind; it defaults to {"kind":"adaptive","r":32}. A
// windowed spec covers only the most recent points: "window":"10000"
// keeps the last 10000 points, "window":"30s" the points of the last 30
// seconds of wall time.
//
// The replay subcommand rebuilds a summary from a durable stream's
// write-ahead-log directory (as written by hullserver -data): latest
// checkpoint first, then the log tail, tolerating a record torn by a
// crash. It answers the same queries, so a stream can be inspected
// offline — or salvaged from a dead server's disk.
//
// The push subcommand summarizes stdin the same way, then pushes the
// O(r) snapshot to a fan-in aggregate stream on an upstream hullserver
// (creating it on first contact) — the scriptable one-shot counterpart
// of hullserver's -push-to follower loop.
//
// The streams subcommand lists a server's streams — -limit/-cursor pass
// straight through to the paginated GET /v1/streams, and -all walks
// every page — marking each stream's tier (memory, warm, cold). The
// stats subcommand scrapes /metrics and prints the cold-tier health:
// resident and cold counts, lifetime evictions and rehydrations.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		runReplay(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "push" {
		runPush(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "relay" {
		runRelay(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "streams" {
		runStreams(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		runStats(os.Args[2:])
		return
	}
	var (
		spec    = defaultSpec()
		queries = flag.String("query", "diameter,width", "comma-separated: diameter,width,extent,area,circle")
		theta   = flag.Float64("theta", 0, "direction (radians) for the extent query")
		hull    = flag.Bool("hull", false, "print hull vertices")
	)
	flag.Var(spec, "spec", "summary spec JSON")
	flag.Parse()

	sum := spec.summary()
	consumeStdin(sum)
	report(sum, *queries, *theta, *hull)
}

// specFlag is a -spec flag: a streamhull.Spec given as JSON, parsed and
// validated when the command line is.
type specFlag struct{ spec streamhull.Spec }

// defaultSpec is the -spec value when the flag is absent.
func defaultSpec() *specFlag {
	return &specFlag{spec: streamhull.Spec{Kind: streamhull.KindAdaptive, R: 32}}
}

func (f *specFlag) String() string { return f.spec.String() }

func (f *specFlag) Set(s string) error {
	spec, err := streamhull.ParseSpec(s)
	if err != nil {
		return err
	}
	f.spec = spec
	return nil
}

// summary builds the summary the flag names.
func (f *specFlag) summary() streamhull.Summary {
	sum, err := streamhull.New(f.spec)
	if err != nil {
		log.Fatal(err)
	}
	return sum
}

// consumeStdin feeds the stdin point stream into sum, exiting with the
// offending line on bad input. Points are fed through the batch path:
// InsertBatch validates each chunk atomically and prefilters it to its
// convex hull, so a dense stream costs far less than per-line Inserts
// would. Time-windowed summaries are the exception — their semantics
// depend on each point's arrival time, which buffering would quantize
// to flush instants — so they keep the per-line Insert.
func consumeStdin(sum streamhull.Summary) {
	batchSize := 1024
	if wh, ok := sum.(*streamhull.WindowedHull); ok && wh.ByTime() {
		batchSize = 1
	}
	batch := make([]geom.Point, 0, batchSize)
	lines := make([]int, 0, batchSize) // input line of each batched point
	flush := func() {
		_, err := sum.InsertBatch(batch)
		if err != nil {
			// The batch is rejected as a whole; recover the offending
			// line for the message.
			for i, p := range batch {
				if !p.IsFinite() {
					log.Fatalf("line %d: %v", lines[i], err)
				}
			}
			log.Fatal(err)
		}
		batch, lines = batch[:0], lines[:0]
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		p, err := parsePoint(text)
		if err != nil {
			log.Fatalf("line %d: %v", line, err)
		}
		batch = append(batch, p)
		lines = append(lines, line)
		if len(batch) == batchSize {
			flush()
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading stdin: %v", err)
	}
	flush()
}

// runPush summarizes stdin like the main command, then pushes the
// summary's snapshot to a fan-in aggregate stream on an upstream
// hullserver — a one-shot, scriptable version of hullserver's -push-to
// follower loop (cron jobs, batch exports, ad-hoc backfills).
func runPush(args []string) {
	fs := flag.NewFlagSet("hullcli push", flag.ExitOnError)
	var (
		to     = fs.String("to", "", "aggregator base URL (e.g. http://agg:8080)")
		token  = fs.String("token", "", "bearer token for an authenticated aggregator (needs the push role)")
		stream = fs.String("stream", "", "aggregate stream id on the upstream server")
		source = fs.String("source", "", "source name this contribution is keyed by")
		epoch  = fs.Uint64("epoch", 0, "push epoch (0 = wall-clock nanoseconds; must increase across pushes for one source)")
		spec   = defaultSpec()
	)
	fs.Var(spec, "spec", "summary spec JSON")
	_ = fs.Parse(args)
	if *to == "" || *stream == "" || *source == "" {
		log.Fatal("push: need -to, -stream and -source")
	}
	sum := spec.summary()
	consumeStdin(sum)
	sn, ok := sum.(streamhull.Snapshotter)
	if !ok {
		log.Fatalf("push: summary kind %q has no snapshot form", sum.Spec().Kind)
	}
	snap := sn.Snapshot()
	data, err := snap.Encode()
	if err != nil {
		log.Fatalf("push: encoding snapshot: %v", err)
	}
	e := *epoch
	if e == 0 {
		e = uint64(time.Now().UnixNano())
	}
	ctx := context.Background()
	client := &http.Client{Timeout: 10 * time.Second}
	if err := fanin.EnsureAggregate(ctx, client, *to, *token, *stream, snap.R); err != nil {
		log.Fatal(err)
	}
	if _, err := fanin.Push(ctx, client, *to, *token, *stream, *source, "", e, data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pushed %s as source %q epoch %d: %d points summarized, %d sample points\n",
		*stream, *source, e, snap.N, len(snap.Points))
}

// runRelay forwards one server's streams to an upstream aggregator in a
// single shot: GET every snapshot from -from (fan-in aggregates
// included, so a regional aggregator relays its merged tier upward) and
// push each to the same-named aggregate stream on -to. It is the
// scriptable counterpart of hullserver's -push-to/-push-aggregates
// follower loop — a cron-driven cascade step, or a manual catch-up for
// a tier whose push loop is wedged.
func runRelay(args []string) {
	fs := flag.NewFlagSet("hullcli relay", flag.ExitOnError)
	var (
		from      = fs.String("from", "", "source server base URL whose streams are relayed")
		fromToken = fs.String("from-token", "", "bearer token for the source server (needs the read role)")
		to        = fs.String("to", "", "upstream aggregator base URL")
		token     = fs.String("token", "", "bearer token for the aggregator (needs the push role)")
		source    = fs.String("source", "", "source name the relayed tier is keyed by upstream")
		leaves    = fs.Bool("leaves", false, "also relay non-aggregate streams (default: fan-in aggregates only when any exist, everything otherwise)")
	)
	_ = fs.Parse(args)
	if *from == "" || *to == "" || *source == "" {
		log.Fatal("relay: need -from, -to and -source")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	ctx := context.Background()

	var listing struct {
		Streams []struct {
			ID   string          `json:"id"`
			Spec streamhull.Spec `json:"spec"`
		} `json:"streams"`
	}
	getJSON(client, *from+"/v1/streams", *fromToken, &listing)
	// When the source tier has aggregates, those are the tier's state and
	// the default relay set; its leaf streams are usually other nodes'
	// pushed-in state and relaying them too would double-count, unless
	// the operator asks with -leaves.
	hasAggregates := false
	for _, st := range listing.Streams {
		if st.Spec.Kind == streamhull.KindFanIn {
			hasAggregates = true
			break
		}
	}
	relayed := 0
	for _, st := range listing.Streams {
		if hasAggregates && !*leaves && st.Spec.Kind != streamhull.KindFanIn {
			continue
		}
		var snap streamhull.Snapshot
		getJSON(client, *from+"/v1/streams/"+url.PathEscape(st.ID)+"/snapshot", *fromToken, &snap)
		data, err := snap.Encode()
		if err != nil {
			log.Fatalf("relay: encoding snapshot of %q: %v", st.ID, err)
		}
		if err := fanin.EnsureAggregate(ctx, client, *to, *token, st.ID, snap.R); err != nil {
			log.Fatal(err)
		}
		epoch := uint64(time.Now().UnixNano())
		if _, err := fanin.Push(ctx, client, *to, *token, st.ID, *source, "", epoch, data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("relayed %s as source %q epoch %d: n=%d, %d sample points\n",
			st.ID, *source, epoch, snap.N, len(snap.Points))
		relayed++
	}
	fmt.Printf("relay: %d stream(s) forwarded from %s to %s\n", relayed, *from, *to)
}

// runStreams lists a server's streams: GET /v1/streams with the
// paginated listing's -limit/-cursor passed straight through, or -all
// to walk every page client-side.
func runStreams(args []string) {
	fs := flag.NewFlagSet("hullcli streams", flag.ExitOnError)
	var (
		to     = fs.String("to", "http://localhost:8080", "hullserver base URL")
		token  = fs.String("token", "", "bearer token for an authenticated server")
		limit  = fs.Int("limit", 0, "page size (0 = server returns everything at once)")
		cursor = fs.String("cursor", "", "resume after this stream id (from a previous page's next_cursor)")
		all    = fs.Bool("all", false, "follow next_cursor until every page is printed (needs -limit)")
	)
	_ = fs.Parse(args)
	client := &http.Client{Timeout: 10 * time.Second}
	fmt.Printf("%-32s %-10s %8s %8s %s\n", "ID", "KIND", "N", "SAMPLE", "STATE")
	cur := *cursor
	total := 0
	for {
		u := *to + "/v1/streams"
		q := url.Values{}
		if *limit > 0 {
			q.Set("limit", strconv.Itoa(*limit))
		}
		if cur != "" {
			q.Set("cursor", cur)
		}
		if len(q) > 0 {
			u += "?" + q.Encode()
		}
		var page struct {
			Streams []struct {
				ID         string          `json:"id"`
				Spec       streamhull.Spec `json:"spec"`
				N          int             `json:"n"`
				SampleSize int             `json:"sample_size"`
				Durable    bool            `json:"durable"`
				Cold       bool            `json:"cold"`
			} `json:"streams"`
			NextCursor string `json:"next_cursor"`
		}
		getJSON(client, u, *token, &page)
		for _, s := range page.Streams {
			state := "memory"
			if s.Durable {
				state = "warm"
			}
			if s.Cold {
				state = "cold"
			}
			kind := string(s.Spec.Kind)
			if s.Spec.Window != "" {
				kind += "(" + s.Spec.Window + ")"
			}
			fmt.Printf("%-32s %-10s %8d %8d %s\n", s.ID, kind, s.N, s.SampleSize, state)
			total++
		}
		if page.NextCursor == "" || !*all {
			if page.NextCursor != "" {
				fmt.Printf("# next_cursor=%s (rerun with -cursor %s, or -all)\n",
					page.NextCursor, page.NextCursor)
			}
			break
		}
		cur = page.NextCursor
	}
	if *all {
		fmt.Printf("# %d streams\n", total)
	}
}

// runStats prints the server's cold-tier health scraped from /metrics:
// resident and cold stream counts, lifetime evictions and rehydrations.
func runStats(args []string) {
	fs := flag.NewFlagSet("hullcli stats", flag.ExitOnError)
	var (
		to    = fs.String("to", "http://localhost:8080", "hullserver base URL")
		token = fs.String("token", "", "bearer token for an authenticated server")
	)
	_ = fs.Parse(args)
	client := &http.Client{Timeout: 10 * time.Second}
	req, err := http.NewRequest("GET", *to+"/metrics", nil)
	if err != nil {
		log.Fatal(err)
	}
	if *token != "" {
		req.Header.Set("Authorization", "Bearer "+*token)
	}
	resp, err := client.Do(req)
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("stats: GET /metrics: %s", resp.Status)
	}
	wanted := map[string]string{
		"streamhull_store_resident_streams":   "resident (summary in memory)",
		"streamhull_store_cold_streams":       "cold (parked at checkpoint)",
		"streamhull_store_evictions_total":    "evictions",
		"streamhull_store_rehydrations_total": "rehydrations",
		"streamhull_streams":                  "streams",
	}
	found := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if _, ok := wanted[name]; !ok {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		found[name] += v // labeled series (per-tenant) sum into one line
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("stats: reading /metrics: %v", err)
	}
	for _, name := range []string{
		"streamhull_streams",
		"streamhull_store_resident_streams",
		"streamhull_store_cold_streams",
		"streamhull_store_evictions_total",
		"streamhull_store_rehydrations_total",
	} {
		if v, ok := found[name]; ok {
			fmt.Printf("%-32s %g\n", wanted[name], v)
		}
	}
	if len(found) == 0 {
		log.Fatal("stats: no streamhull metrics on that server (started with -metrics=false?)")
	}
}

// getJSON fetches url and decodes the JSON response into out, fatally
// reporting HTTP or decode errors.
func getJSON(client *http.Client, u, token string, out any) {
	req, err := http.NewRequest("GET", u, nil)
	if err != nil {
		log.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		log.Fatalf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("GET %s: decoding: %v", u, err)
	}
}

// runReplay rebuilds a summary from a WAL directory and reports on it.
func runReplay(args []string) {
	fs := flag.NewFlagSet("hullcli replay", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "stream WAL directory (e.g. <data-dir>/<stream>)")
		queries = fs.String("query", "diameter,width", "comma-separated: diameter,width,extent,area,circle")
		theta   = fs.Float64("theta", 0, "direction (radians) for the extent query")
		hull    = fs.Bool("hull", false, "print hull vertices")
	)
	_ = fs.Parse(args)
	if *dir == "" && fs.NArg() == 1 {
		*dir = fs.Arg(0)
	}
	if *dir == "" {
		log.Fatal("replay: need a WAL directory (-dir or positional)")
	}

	rec, err := replaySummary(*dir)
	if err != nil {
		log.Fatalf("replay %s: %v", *dir, err)
	}
	fmt.Printf("replayed %s: checkpoint=%v segments=%d records=%d points=%d",
		*dir, rec.HasCheckpoint, rec.Segments, rec.Records, rec.Points)
	if rec.Torn {
		fmt.Printf(" (dropped a torn tail record)")
	}
	fmt.Println()
	report(rec.Summary, *queries, *theta, *hull)
}

// replaySummary restores a stream summary from its WAL directory —
// the same recovery path the server runs at startup.
func replaySummary(dir string) (*store.Recovered, error) {
	rec, err := store.LoadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%w (is this a stream directory under hullserver's -data?)", err)
	}
	return rec, nil
}

// report prints the summary line, the requested queries, and optionally
// the hull vertices.
func report(sum streamhull.Summary, queries string, theta float64, hull bool) {
	h := sum.Hull()
	fmt.Printf("spec=%s\n", sum.Spec())
	fmt.Printf("points=%d stored=%d hull-vertices=%d", sum.N(), sum.SampleSize(), h.Len())
	if w, ok := sum.(*streamhull.WindowedHull); ok {
		count, age := w.WindowSpan()
		fmt.Printf(" window=%s live=%d", w.Spec().Window, count)
		if age > 0 {
			fmt.Printf(" span=%s", age.Round(time.Millisecond))
		}
	}
	fmt.Println()
	for _, q := range strings.Split(queries, ",") {
		switch strings.TrimSpace(q) {
		case "":
		case "diameter":
			d, pair := h.Diameter()
			fmt.Printf("diameter=%g between %v and %v\n", d, pair[0], pair[1])
		case "width":
			w, ang := h.Width()
			fmt.Printf("width=%g at angle %g\n", w, ang)
		case "extent":
			fmt.Printf("extent(theta=%g)=%g\n", theta, h.Extent(theta))
		case "area":
			fmt.Printf("area=%g perimeter=%g\n", h.Area(), h.Perimeter())
		case "circle":
			c, rad := h.EnclosingCircle()
			fmt.Printf("enclosing-circle center=%v radius=%g\n", c, rad)
		default:
			log.Fatalf("unknown query %q", q)
		}
	}
	if hull {
		for _, v := range h.Vertices() {
			fmt.Printf("%g,%g\n", v.X, v.Y)
		}
	}
}

func parsePoint(s string) (geom.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return geom.Point{}, fmt.Errorf("want \"x,y\", got %q", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return geom.Point{}, fmt.Errorf("bad x: %v", err)
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return geom.Point{}, fmt.Errorf("bad y: %v", err)
	}
	return geom.Pt(x, y), nil
}
