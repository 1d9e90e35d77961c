package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"testing"
	"time"
)

// The tests run from the checkout root, as the benchmark does: schedd
// reads testdata/workloads and everything written lands in .bench_build.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// smoke is the tiny configuration of a workload: library pools at an
// eighth of their task counts and one pass of the timed loop; for schedd,
// a loop long enough for every op kind to run in both halves of a traced
// run, under the race detector too.
func smoke(workload string, seed int64, trace bool) runConfig {
	d := 200 * time.Millisecond
	if workload == scheddWorkload {
		d = 3 * time.Second
	}
	return runConfig{workload: workload, seed: seed, seconds: d, trace: trace, scale: 8}
}

func mustRun(t *testing.T, cfg runConfig) *report {
	t.Helper()
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed the correctness gate", cfg.workload, rep.failed, rep.attempted)
	}
	return rep
}

// runnable are the workloads the command accepts: the benchmark's and the
// schedd workload run by hand.
var runnable = []string{"bsa-dense", "bsa-sparse", scheddWorkload}

func TestSmokeWorkloadsPassTheGateAndEmitEveryMetric(t *testing.T) {
	for _, w := range runnable {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep := mustRun(t, smoke(w, defaultSeed, trace))
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				res := rep.result(trace)
				if !res.Correct || len(res.Metrics) != len(defs) {
					t.Fatalf("trace=%v: correct=%v with %d metrics, want %d", trace, res.Correct, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.Name, v, d.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
				// Every traced run measures every layer; counters that
				// can legitimately read 0 are not required to move.
				if trace {
					for _, l := range layers {
						for _, name := range l.Metrics {
							if res.Metrics[name].Value == 0 && !mayBeZero[name] {
								t.Errorf("layer %s: %s is 0", l.Layer, name)
							}
						}
					}
				}
			}
		})
	}
}

var mayBeZero = map[string]bool{
	"core.cache_hits": true, "core.cache_hit_ratio": true, "core.reverted": true,
	"warm.cache_hit_ratio": true, "service.queue_full": true,
}

func TestSameSeedGivesSamePoolAndMakespan(t *testing.T) {
	for _, w := range runnable {
		t.Run(w, func(t *testing.T) {
			a := mustRun(t, smoke(w, 7, false))
			b := mustRun(t, smoke(w, 7, false))
			if a.digest != b.digest {
				t.Errorf("pool digest %s then %s", a.digest, b.digest)
			}
			if math.Float64bits(a.makespanNorm) != math.Float64bits(b.makespanNorm) {
				t.Errorf("makespan_norm %v then %v", a.makespanNorm, b.makespanNorm)
			}
		})
	}
}

func TestDifferentSeedGivesDifferentPool(t *testing.T) {
	for _, w := range []string{"bsa-dense", "bsa-sparse"} {
		a, err := setupLibrary(w, 1, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := setupLibrary(w, 2, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest == b.digest {
			t.Errorf("%s: seeds 1 and 2 give the same pool %s", w, a.digest)
		}
	}
	a := mustRun(t, smoke(scheddWorkload, 1, false))
	b := mustRun(t, smoke(scheddWorkload, 2, false))
	if a.digest == b.digest {
		t.Errorf("schedd: seeds 1 and 2 give the same pool %s", a.digest)
	}
}

func TestSpecFilesAreCurrent(t *testing.T) {
	bench, spec, err := specDocs()
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{"BENCHMARK.json": bench, "perfbench/spec.json": spec} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: run the benchmark with --write-spec", path)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.5: 3, 0.9: 5, 0.2: 1, 0.99: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
