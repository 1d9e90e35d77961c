// Command perfbench is the repository benchmark. It generates every input
// from a workload seed, drives the scheduler only through its public
// packages (sched, sched/gen, sched/system, sched/workload, sched/service),
// checks every output and prints every metric by name and unit, ending
// with one JSON line:
//
//	bash perfbench/run.sh --workload bsa-dense --seed 1 --seconds 12 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run and reports the per-layer metrics. --write-spec rewrites
// BENCHMARK.json and perfbench/spec.json from the tables in spec.go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	_ "repro/sched/register"
)

// setupReps is how many times a run sets up its workload; setup_s is the
// median.
const setupReps = 3

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// scale divides the pools' task counts; 1 is the benchmark, larger
	// values are the self-tests' smoke configuration.
	scale int
}

// report is the outcome of one run.
type report struct {
	workload string
	seed     int64
	digest   string

	attempted, failed int

	setupS       float64
	opsPerS      float64
	lat          []float64 // ms, one per successful op
	makespanNorm float64
	allocMBPerOp float64
	peakRSS      float64

	layer     map[string]float64
	selfTimes map[string]float64
	spans     *tracer
}

// addLoop records the untraced timed loop's figures.
func (r *report) addLoop(st loopStats) {
	r.attempted += st.attempts
	r.failed += st.failed
	r.lat = st.lat
	r.opsPerS = st.opsPerS
	r.peakRSS = st.peakRSS
	r.allocMBPerOp = ratio(float64(st.alloc)/(1<<20), float64(st.attempts))
}

func (r *report) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":         r.setupS,
		"ops_per_s":       r.opsPerS,
		"latency_ms_p50":  quantile(r.lat, 0.5),
		"latency_ms_p90":  quantile(r.lat, 0.9),
		"makespan_norm":   r.makespanNorm,
		"alloc_mb_per_op": r.allocMBPerOp,
		"peak_rss_mb":     r.peakRSS,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg runConfig
	var seconds float64
	var trace int
	var spec bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name: bsa-dense, bsa-sparse or schedd")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; every input is drawn from it")
	flag.Float64Var(&seconds, "seconds", runSeconds, "how long the timed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced run and reports per-layer metrics")
	flag.BoolVar(&spec, "write-spec", false, "rewrite BENCHMARK.json and perfbench/spec.json and exit")
	flag.Parse()
	if spec {
		if err := writeSpec("."); err != nil {
			fatal(err)
		}
		return
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.scale = 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	if rep.spans != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.spans.dump(path); err != nil {
			fatal(fmt.Errorf("dump spans: %w", err))
		}
		fmt.Printf("spans: %s\n", path)
	}
	res := rep.result(cfg.trace)
	rep.print(res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func run(ctx context.Context, cfg runConfig) (*report, error) {
	switch cfg.workload {
	case "bsa-dense", "bsa-sparse":
		return runLibrary(ctx, cfg)
	case scheddWorkload:
		return runSchedd(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// result assembles the machine-readable last line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (r *report) result(traced bool) result {
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	defs, values := endToEnd, r.endToEnd()
	if traced {
		defs, values = perLayer, r.layer
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res
}

// print writes the human-readable report that precedes the JSON line.
func (r *report) print(res result) {
	fmt.Printf("workload %s seed %d pool %s\n", r.workload, r.seed, r.digest)
	fmt.Printf("ops attempted %d failed %d error_frac %g\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	fmt.Printf("latency samples %d (library workloads: one per pool instance, the median of its repeats)\n", len(r.lat))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if r.workload == scheddWorkload {
		fmt.Printf("  %-28s %14.6g ms (schedd only, over its %d ops)\n", "latency_ms_p99", quantile(r.lat, 0.99), len(r.lat))
	}
	if len(r.selfTimes) > 0 {
		fmt.Println("self time by span (ms, traced half and ladder):")
		keys := make([]string, 0, len(r.selfTimes))
		for k := range r.selfTimes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-28s %14.3f\n", k, r.selfTimes[k])
		}
	}
}
