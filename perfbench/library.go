package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/sched"
	"repro/sched/system"
)

// The pools below fix every shape parameter (family, network, task
// count, granularity); the seed draws the graphs' structure and costs and
// the heterogeneity factors. Percentiles over a pool are steady from seed
// to seed only when many instances cost about the same, so a pool holds
// several draws of every shape, with the task count of each shape chosen
// to put its cold BSA run near one common cost (about 60 ms dense and 40
// ms sparse on the 2-CPU machine the pools were sized on). Every run
// cycles through its pool whole.
//
// Each pool also holds heavyDraws draws of one large shape, several times
// the common cost, which make its slowest instances: with about 120
// instances, nearest-rank p90 is the 12th or 13th slowest, so it falls
// among the large draws. The large shape's cost varies by a factor of two
// from draw to draw, so its draws come from heavySeed, the same in every
// run: p90 measures the same large jobs whatever the workload seed, and
// moves only when the program does.
var families = []string{"random", "gauss", "lu", "laplace"}

const (
	heavyDraws = 16
	heavySeed  = 20261017
)

// shape is one instance family at one granularity (mean exec / mean comm
// cost) and task count.
type shape struct {
	family string
	gran   float64
	size   int
}

// poolNet is one network of a pool and the shapes it runs.
type poolNet struct {
	topo   string
	procs  int
	shapes []shape
}

func poolSpecs(nets []poolNet, draws int) []instSpec {
	var specs []instSpec
	for d := 0; d < draws; d++ {
		for _, n := range nets {
			for _, s := range n.shapes {
				specs = append(specs, instSpec{s.family, s.size, s.gran, n.topo, n.procs})
			}
		}
	}
	return specs
}

// densePool: fully connected 16 and 32 processors, every family at
// granularity 0.1, 1 and 10. At granularity 0.1 BSA migrates little, so
// those graphs are the largest.
func densePool() (ordinary, heavy []instSpec) {
	return poolSpecs([]poolNet{
		{"clique", 16, []shape{
			{"random", 0.1, 440}, {"gauss", 0.1, 640}, {"lu", 0.1, 600}, {"laplace", 0.1, 600},
			{"random", 1, 210}, {"gauss", 1, 230}, {"lu", 1, 250}, {"laplace", 1, 220},
			{"random", 10, 220}, {"gauss", 10, 250}, {"lu", 10, 240}, {"laplace", 10, 230}}},
		{"clique", 32, []shape{
			{"random", 0.1, 340}, {"gauss", 0.1, 440}, {"lu", 0.1, 440}, {"laplace", 0.1, 490},
			{"random", 1, 170}, {"gauss", 1, 170}, {"lu", 1, 200}, {"laplace", 1, 220},
			{"random", 10, 210}, {"gauss", 10, 240}, {"lu", 10, 230}, {"laplace", 10, 240}}},
	}, 4), poolSpecs([]poolNet{{"clique", 32, []shape{{"gauss", 10, 460}}}}, heavyDraws)
}

// sparsePool: ring-16, hypercube-16, torus-16 and ring-64 at granularity
// 0.1 and 1. Granularity 10 is left out: on these networks it costs 5-10
// times granularity 1 at the same task count. Random layered graphs run at
// granularity 1 only: at 0.1 their cost swings up to 30x from seed to
// seed on these networks, so one draw would set every percentile.
func sparsePool() (ordinary, heavy []instSpec) {
	return poolSpecs([]poolNet{
		{"ring", 16, []shape{
			{"gauss", 0.1, 1000}, {"lu", 0.1, 1000}, {"laplace", 0.1, 900},
			{"random", 1, 350}, {"gauss", 1, 470}, {"lu", 1, 480}, {"laplace", 1, 410}}},
		{"hypercube", 16, []shape{
			{"gauss", 0.1, 1000}, {"lu", 0.1, 1000}, {"laplace", 0.1, 850},
			{"random", 1, 300}, {"gauss", 1, 380}, {"lu", 1, 370}, {"laplace", 1, 360}}},
		{"torus", 16, []shape{
			{"gauss", 0.1, 1000}, {"lu", 0.1, 1000}, {"laplace", 0.1, 1000},
			{"random", 1, 300}, {"gauss", 1, 350}, {"lu", 1, 360}, {"laplace", 1, 350}}},
		{"ring", 64, []shape{
			{"gauss", 0.1, 1000}, {"lu", 0.1, 1000}, {"laplace", 0.1, 850},
			{"random", 1, 330}, {"gauss", 1, 460}, {"lu", 1, 490}, {"laplace", 1, 390}}},
	}, 4), poolSpecs([]poolNet{{"hypercube", 16, []shape{{"gauss", 10, 500}}}}, heavyDraws)
}

// libOp is one cold Schedule call of a pool.
type libOp struct {
	name string
	inst *instance
	seed int64
}

func (o *libOp) run(ctx context.Context, bsa sched.Scheduler, opts ...sched.Option) (*sched.Result, error) {
	return bsa.Schedule(ctx, o.inst.problem, append([]sched.Option{sched.WithSeed(o.seed)}, opts...)...)
}

// libPool is the set-up state of a library workload.
type libPool struct {
	ops    []*libOp
	digest string
}

func setupLibrary(workload string, seed int64, scale int, tr *tracer) (*libPool, error) {
	b := newBuilder(seed, tr)
	specs, heavy := densePool()
	if workload == "bsa-sparse" {
		specs, heavy = sparsePool()
	}
	pool := &libPool{}
	for i, s := range append(specs, heavy...) {
		if i == len(specs) {
			b.rng = rand.New(rand.NewSource(heavySeed))
		}
		s.size /= scale
		inst, err := b.build(s)
		if err != nil {
			return nil, err
		}
		pool.ops = append(pool.ops, &libOp{name: inst.name, inst: inst, seed: int64(i + 1)})
	}
	pool.digest = b.sum()
	return pool, nil
}

// libLoop is the timed closed loop of one caller over a pool. Each op's
// first makespan is kept so repeats can be checked bit for bit.
type libLoop struct {
	ctx      context.Context
	bsa      sched.Scheduler
	pool     *libPool
	makespan []float64
	seen     []bool
	failures int
}

type loopStats struct {
	// lat holds op latencies in ms: per instance of a library pool, the
	// median of its repeats, so a pass slowed by another process on the
	// machine does not move the percentiles.
	lat      []float64
	opsPerS  float64
	alloc    uint64
	attempts int
	failed   int
	// peakRSS is the resident set's peak over the loop (MB); see
	// rssSampler.peak.
	peakRSS float64
}

// fail counts a failed op and reports the first few on stderr.
func (l *libLoop) fail(op *libOp, err error) {
	l.failures++
	if l.failures <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op %s failed: %v\n", op.name, err)
	}
}

// check verifies one op's output outside its timed interval: the schedule
// must pass validation and simulator replay, and a repeated op must give
// the makespan its first run gave.
func (l *libLoop) check(tr *tracer, opID, root int64, i int, res *sched.Result) error {
	t0 := time.Now()
	if err := res.Schedule.Validate(); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	t1 := time.Now()
	tr.record(0, root, opID, "check.validate", t0, t1, "")
	if _, err := res.Schedule.Replay(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	tr.record(0, root, opID, "check.replay", t1, time.Now(), "")
	if !l.seen[i] {
		l.seen[i], l.makespan[i] = true, res.Makespan
	} else if res.Makespan != l.makespan[i] {
		return fmt.Errorf("makespan %v differs from the first run's %v", res.Makespan, l.makespan[i])
	}
	return nil
}

// run cycles through the pool in whole passes until d has elapsed, so
// every run sees the same mix. Each instance's latency is the median of
// its repeats, and ops per second is the single caller's closed-loop rate
// at those latencies. With a tracer, each op gets a root span with the
// library call and the checks as children, and onResult sees every
// result.
func (l *libLoop) run(d time.Duration, tr *tracer, onResult func(i int, res *sched.Result)) loopStats {
	var st loopStats
	perOp := make([][]float64, len(l.pool.ops))
	rss := sampleRSS()
	start := time.Now()
	for time.Since(start) < d || st.attempts == 0 {
		for i, op := range l.pool.ops {
			opID := tr.newID()
			a0 := totalAlloc()
			t0 := time.Now()
			res, err := op.run(l.ctx, l.bsa)
			t1 := time.Now()
			st.alloc += totalAlloc() - a0
			st.attempts++
			if err == nil {
				tr.record(0, opID, opID, "core.schedule", t0, t1, op.name)
				err = l.check(tr, opID, opID, i, res)
			}
			tr.record(opID, 0, opID, "op", t0, time.Now(), op.name)
			if err != nil {
				st.failed++
				l.fail(op, err)
				continue
			}
			perOp[i] = append(perOp[i], float64(t1.Sub(t0))/1e6)
			if onResult != nil {
				onResult(i, res)
			}
		}
	}
	var busy float64
	for _, xs := range perOp {
		if len(xs) > 0 {
			st.lat = append(st.lat, quantile(xs, 0.5))
			busy += st.lat[len(st.lat)-1]
		}
	}
	st.opsPerS = ratio(float64(len(st.lat)), busy/1000)
	st.peakRSS = rss.peak()
	return st
}

func (l *libLoop) makespanNorm() float64 {
	var sum float64
	for i, op := range l.pool.ops {
		sum += l.makespan[i] / op.inst.cpBound
	}
	return sum / float64(len(l.pool.ops))
}

// runLibrary runs bsa-dense or bsa-sparse.
func runLibrary(ctx context.Context, cfg runConfig) (*report, error) {
	bsa, err := sched.Lookup("bsa")
	if err != nil {
		return nil, err
	}
	var pool *libPool
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		var repTr *tracer
		if rep == setupReps-1 {
			repTr = tr
		}
		t0 := time.Now()
		p, err := setupLibrary(cfg.workload, cfg.seed, cfg.scale, repTr)
		if err != nil {
			return nil, err
		}
		// Untimed warm-up op: the first call pays lazy runtime set-up.
		if _, err := p.ops[0].run(ctx, bsa); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if pool != nil && p.digest != pool.digest {
			return nil, fmt.Errorf("set-up is not deterministic: pool digest %s then %s", pool.digest, p.digest)
		}
		pool = p
	}
	rep := &report{workload: cfg.workload, seed: cfg.seed, digest: pool.digest, layer: map[string]float64{}}
	rep.setupS = quantile(setups, 0.5)
	releaseSetupGarbage()
	l := &libLoop{ctx: ctx, bsa: bsa, pool: pool,
		makespan: make([]float64, len(pool.ops)), seen: make([]bool, len(pool.ops))}

	if !cfg.trace {
		st := l.run(cfg.seconds, nil, nil)
		rep.addLoop(st)
		rep.makespanNorm = l.makespanNorm()
		return rep, nil
	}

	untraced := l.run(cfg.seconds/2, nil, nil)
	// Engine counters repeat exactly per op, so one result per op is kept.
	traced := make([]*sched.Result, len(pool.ops))
	st := l.run(cfg.seconds/2, tr, func(i int, res *sched.Result) { traced[i] = res })
	rep.addLoop(untraced)
	rep.attempted += st.attempts
	rep.failed += st.failed
	rep.makespanNorm = l.makespanNorm()
	m := rep.layer
	m["tracing_overhead"] = ratio(quantile(st.lat, 0.5), quantile(untraced.lat, 0.5))
	layerBuild(m, tr)
	m["check.validate_ms"] = mean(tr.durations("check.validate"))
	m["check.replay_ms"] = mean(tr.durations("check.replay"))

	ladder := l.ladder(tr)
	for k, v := range ladder.ms {
		m[k] = v
	}
	rep.attempted += ladder.attempts
	rep.failed += ladder.failed
	layerCore(m, bsaCounts(traced), tr.durations("core.schedule"))
	attempted, failed, err := measureService(ctx, cfg, bsa, tr, m)
	if err != nil {
		return nil, err
	}
	rep.attempted += attempted
	rep.failed += failed
	rep.selfTimes = tr.selfTimes()
	rep.spans = tr
	return rep, nil
}

// ladderStride picks every ladderStride-th op of a pool for the ladder, so
// the rungs see the pool's mix at a fraction of a pass's cost. It shares
// no factor with the pools' cycle lengths (4 families, 3 granularities, 7
// sparse shapes), so the stride meets every kind of op.
const ladderStride = 5

type ladderOut struct {
	ms       map[string]float64
	attempts int
	failed   int
}

// ladder re-runs a stride of the pool under one output-neutral option per
// rung. Every rung must reproduce the default schedule byte for byte.
func (l *libLoop) ladder(tr *tracer) ladderOut {
	out := ladderOut{ms: map[string]float64{}}
	type rung struct {
		metric string
		opt    func(op *libOp) sched.Option
	}
	rungs := []rung{
		{"ladder.nocache_ms", func(*libOp) sched.Option { return sched.WithCandidateCache(false) }},
		{"ladder.other_backend_ms", func(op *libOp) sched.Option { return sched.WithBackend(otherBackend(op.inst.problem.System.Net)) }},
		{"ladder.oracle_ms", func(*libOp) sched.Option { return sched.WithFullRebuild(true) }},
		{"ladder.workers1_ms", func(*libOp) sched.Option { return sched.WithWorkers(1) }},
	}
	lat := map[string][]float64{}
	for i := 0; i < len(l.pool.ops); i += ladderStride {
		op := l.pool.ops[i]
		opID := tr.newID()
		t0 := time.Now()
		want, err := op.run(l.ctx, l.bsa)
		t1 := time.Now()
		out.attempts++
		var wantJSON []byte
		if err == nil {
			wantJSON, err = want.Schedule.MarshalJSON()
		}
		if err != nil {
			out.failed++
			l.fail(op, err)
			continue
		}
		tr.record(0, opID, opID, "ladder.default", t0, t1, op.name)
		for _, r := range rungs {
			t0 := time.Now()
			res, err := op.run(l.ctx, l.bsa, r.opt(op))
			t1 := time.Now()
			out.attempts++
			if err == nil {
				err = sameSchedule(res, wantJSON)
			}
			if err != nil {
				out.failed++
				l.fail(op, fmt.Errorf("%s: %w", r.metric, err))
				continue
			}
			tr.record(0, opID, opID, r.metric, t0, t1, op.name)
			lat[r.metric] = append(lat[r.metric], float64(t1.Sub(t0))/1e6)
		}
		tr.record(opID, 0, opID, "op", t0, time.Now(), op.name)
	}
	for _, r := range rungs {
		out.ms[r.metric] = quantile(lat[r.metric], 0.5)
	}
	return out
}

// otherBackend names the backend BSA does not pick by default for a
// network: the engine picks "soa" when at least 75% of all processor pairs
// are linked and "reference" otherwise.
func otherBackend(nw *system.Network) string {
	p := float64(nw.NumProcs())
	if p >= 2 && 2*float64(nw.NumLinks())/(p*(p-1)) >= 0.75 {
		return "reference"
	}
	return "soa"
}

func sameSchedule(res *sched.Result, want []byte) error {
	got, err := res.Schedule.MarshalJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("schedule differs from the default run's")
	}
	return nil
}

// layerBuild fills the instance-build and sched.NewProblem metrics from
// the last set-up's spans as pool totals.
func layerBuild(m map[string]float64, tr *tracer) {
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	m["build.instance_ms"] = sum(tr.durations("build.instance"))
	m["build.import_ms"] = sum(tr.durations("build.import"))
	m["sched.new_problem_ms"] = sum(tr.durations("sched.new_problem"))
}

// layerCore fills the engine and cache metrics as means per op over the
// counters of cold BSA runs (Result.BSA, or the Stats schedd returns, which
// carry the same keys) and their run times in ms.
func layerCore(m map[string]float64, counts []map[string]float64, schedMS []float64) {
	sum := map[string]float64{}
	for _, c := range counts {
		for k, v := range c {
			sum[k] += v
		}
	}
	n := float64(len(counts))
	for _, k := range []string{"evaluations", "migrations", "reverted", "sweeps", "rebuilds", "placements",
		"msg_placements", "cache_hits", "cache_partials", "cache_misses"} {
		m["core."+k] = ratio(sum[k], n)
	}
	m["core.schedule_ms"] = mean(schedMS)
	m["core.us_per_evaluation"] = ratio(mean(schedMS)*float64(len(schedMS))*1000, sum["evaluations"])
	m["core.migration_keep_ratio"] = ratio(sum["migrations"], sum["migrations"]+sum["reverted"])
	m["core.cache_hit_ratio"] = ratio(sum["cache_hits"], sum["cache_hits"]+sum["cache_partials"]+sum["cache_misses"])
}

// bsaCounts returns the engine counters of a BSA result's trace.
func bsaCounts(results []*sched.Result) []map[string]float64 {
	var out []map[string]float64
	for _, r := range results {
		if r == nil {
			continue
		}
		t, ok := r.BSA()
		if !ok {
			continue
		}
		out = append(out, map[string]float64{
			"evaluations": float64(t.Evaluations), "migrations": float64(t.Migrations),
			"reverted": float64(t.Reverted), "sweeps": float64(t.Sweeps), "rebuilds": float64(t.Rebuilds),
			"placements": float64(t.Placements), "msg_placements": float64(t.MsgPlacements),
			"cache_hits": float64(t.CacheHits), "cache_partials": float64(t.CachePartials),
			"cache_misses": float64(t.CacheMisses),
		})
	}
	return out
}
