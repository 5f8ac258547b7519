// Command perfbench is the repository's benchmark: it runs one workload
// against a real hullserver process over loopback TCP and prints the
// end-to-end metrics, or (with --trace 1) runs the same workload against
// the same stack built in-process and prints per-layer metrics. Either
// way it checks every served answer against a local reference and exits
// nonzero on any mismatch. See README.md; run it through run.sh, which
// builds both binaries first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric the JSON result line carries.
type metricDef struct{ name, unit string }

// e2eMetrics are BENCHMARK.json's end_to_end metrics, reported by every
// workload's untraced run.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"server_cpu_us_per_op", "us"},
	{"rss_peak_mb", "MiB"},
}

// options are the command-line settings of one run.
type options struct {
	workload  *workloadDef
	seed      int64
	seconds   time.Duration
	serverBin string
	workdir   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measured seconds (after a short unrecorded warm-up)")
	traced := fs.Int("trace", 0, "0: end-to-end run against the hullserver binary; 1: traced in-process run with per-layer metrics")
	bin := fs.String("server-bin", ".bench_build/bin/hullserver", "hullserver binary built from this checkout")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for data directories, logs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{workload: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		serverBin: *bin, workdir: *workdir}
	var rep *report
	var err error
	want := e2eMetrics
	if *traced == 1 {
		rep, err = runTraced(o)
		want = layerMetrics
	} else {
		// The load generator keeps to one CPU so the server, as shipped,
		// has the rest of the machine.
		runtime.GOMAXPROCS(1)
		rep, err = runServed(o)
	}
	if err == nil {
		err = rep.print(stdout, want)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintf(stderr, "perfbench: %s: served answers were wrong: %s\n", w.name, strings.Join(rep.problems, "; "))
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// report is one run's result.
type report struct {
	workload  string
	values    map[string]float64
	units     map[string]string
	notes     map[string]string
	order     []string
	attempted int
	failed    int
	problems  []string // correctness failures
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, units: map[string]string{}, notes: map[string]string{}}
}

// set records a metric; note is printed next to it on the human-readable
// line (sample counts, the percentile actually reported).
func (r *report) set(name, unit string, v float64, note string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name], r.units[name], r.notes[name] = v, unit, note
}

// fail records a correctness failure.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// print writes one human-readable line per metric, then the result
// object the benchmark contract reads, carrying exactly the metrics in
// want, as the last line.
func (r *report) print(w io.Writer, want []metricDef) error {
	for _, name := range r.order {
		line := fmt.Sprintf("%s %-26s %14.6g %s", r.workload, name, r.values[name], r.units[name])
		if n := r.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s MISMATCH %s\n", r.workload, p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var missing []string
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		if r.units[m.name] != m.unit {
			return fmt.Errorf("metric %s measured in %s, contract says %s", m.name, r.units[m.name], m.unit)
		}
		metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
