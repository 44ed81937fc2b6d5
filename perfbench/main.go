// Command perfbench is the repository benchmark: it drives parj-server
// over loopback HTTP with seeded op streams and prints the end-to-end
// metrics, or, with -trace 1, replays the same streams in-process through
// each layer's public entry points and prints the per-layer metrics.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload watdiv-churn --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name: {value, unit}}}.
// README.md in this directory defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are measured with tracing off, over HTTP.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"query_geomean_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"server_cpu_ms_per_query", "ms", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_p99_ms", "ms", "lower", 0.25},
}

// perLayer come from the traced run unless README.md marks them otherwise.
var perLayer = []metricDef{
	{name: "server.http_ms", unit: "ms", better: "lower"},
	{name: "server.resp_bytes_per_row", unit: "B", better: "lower"},
	{name: "server.took_ms", unit: "ms", better: "lower"},
	{name: "parj.query_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_ms", unit: "ms", better: "lower"},
	{name: "parj.overhead_ms", unit: "ms", better: "lower"},
	{name: "governance.admit_wait_ms", unit: "ms", better: "lower"},
	{name: "sparql.parse_ms", unit: "ms", better: "lower"},
	{name: "optimizer.plan_ms", unit: "ms", better: "lower"},
	{name: "core.exec_ms", unit: "ms", better: "lower"},
	{name: "core.decode_ms", unit: "ms", better: "lower"},
	{name: "core.seq_probe_ratio", unit: "ratio", better: "higher"},
	{name: "core.probes_per_row", unit: "count", better: "lower"},
	{name: "core.worker_imbalance", unit: "ratio", better: "lower"},
	{name: "core.steals", unit: "count", better: "lower"},
	{name: "live.merge_stall_ms", unit: "ms", better: "lower"},
	{name: "live.stalled_read_ratio", unit: "ratio", better: "lower"},
	{name: "store.apply_delta_ms", unit: "ms", better: "lower"},
	{name: "posindex.build_ms", unit: "ms", better: "lower"},
	{name: "stats.derive_ms", unit: "ms", better: "lower"},
	{name: "live.apply_ms", unit: "ms", better: "lower"},
	{name: "live.reconcile_ms", unit: "ms", better: "lower"},
	{name: "wal.commit_ms", unit: "ms", better: "lower"},
	{name: "wal.records_per_fsync", unit: "ratio", better: "higher"},
	{name: "wal.bytes_per_triple", unit: "B", better: "lower"},
	{name: "wal.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "rdf.parse_ms", unit: "ms", better: "lower"},
	{name: "store.build_ms", unit: "ms", better: "lower"},
	{name: "stats.build_ms", unit: "ms", better: "lower"},
	{name: "store.bytes_per_triple", unit: "B", better: "lower"},
	{name: "remote.overhead_ms", unit: "ms", better: "lower"},
}

// Server settings shared by every launch. The checkpoint pair makes
// several checkpoints land in each watdiv-churn run.
const (
	setupLaunches = 7
	ckptOps       = 32
	ckptInterval  = "250ms"
	reconcileOps  = 4096 // parj-server's default auto-reconcile threshold
)

// env is one invocation's configuration.
type env struct {
	root    string // checkout root
	bin     string // built binaries
	dir     string // this run's scratch directory
	w       *workloadSpec
	seed    int64
	seconds int
	mark    time.Time // end of the previous phase
}

// phase logs how long the previous phase of the run took, on stderr.
func (e *env) phase(name string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "perfbench: %-12s %6.2fs\n", name, now.Sub(e.mark).Seconds())
	e.mark = now
}

// outcome is the benchmark's result line.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
		o.correct = false
	}
}

// check records a correctness check that is not an op against the
// server, such as an oracle comparison of the final state.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
}

func main() {
	root := flag.String("root", ".", "checkout root holding .bench_build/bin")
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed of the op streams")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.Parse()
	if err := run(*root, *name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed int64, seconds, trace int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	e := &env{root: abs, bin: filepath.Join(abs, ".bench_build", "bin"), w: w, seed: seed, seconds: seconds, mark: time.Now()}
	e.dir = filepath.Join(abs, ".bench_build", "run", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.dir)

	var out *outcome
	defs := endToEnd
	if trace == 1 {
		out, err = runTraced(e)
		defs = perLayer
	} else {
		out, err = runUntraced(e)
	}
	if err != nil {
		return err
	}
	return emit(out, defs)
}

// emit prints every metric of defs as a readable table, then the result
// line. A metric the run did not produce is an error.
func emit(o *outcome, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("  %-28s %14.4f %s\n", d.name, v, d.unit)
	}
	var extra []string
	for k := range o.metrics {
		if _, ok := metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics %v are not declared", extra)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
