package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/service"
	"repro/sched/system"
	"repro/sched/workload"
)

// scheddClients is the closed loop's client count, one per CPU of the
// machine the benchmark was sized on.
const scheddClients = 2

// batchSize is the job count of one SubmitBatch op.
const batchSize = 16

// opTimeout bounds one schedd op so a stuck request fails the run instead
// of hanging it.
const opTimeout = 30 * time.Second

// jobTTL is how long the server keeps a finished job. Lookups and
// reschedules use each client's latest finished job, well within it.
const jobTTL = 2 * time.Second

// scheddTestdata are the committed workload files every schedd run
// schedules beside its generated graphs.
var scheddTestdata = []string{"diamond.stg", "sparse10.stg", "epigenomics-small.json", "montage-small.json"}

// scheddGenerated is how many generated graphs of 20-60 tasks join the
// testdata files as job templates.
const scheddGenerated = 60

// scheddNets are the small networks schedd jobs run on, cycled over the
// templates.
var scheddNets = []scheddNet{{"ring", 8}, {"hypercube", 8}, {"clique", 8}, {"mesh", 8}}

type scheddNet struct {
	topo  string
	procs int
}

// template is one schedd job: its request, and the library's answers for
// the request and for a reschedule of it, as compact schedule JSON.
type template struct {
	req         service.ScheduleRequest
	want        []byte
	deltaJSON   json.RawMessage
	rescheduled []byte

	// The library side of the reschedule: the cold result it starts from,
	// the delta and the post-delta problem.
	res   *sched.Result
	delta namedDelta
}

// opKinds is each client's fixed op cycle. Lookups read finished jobs
// while other requests write the WAL. Batches, the slowest ops by far, are
// a fifth of the cycle, so p90 falls inside their latencies rather than on
// the edge between them and the rest.
var opKinds = []string{"sync", "async", "lookup", "batch", "sync", "lookup", "reschedule", "batch", "async", "lookup"}

type scheddEnv struct {
	templates []*template
	pool      *libPool
	refs      *libLoop
	wal       *service.WALStore
	walDir    string
	srv       *service.Server
	hs        *http.Server
	served    chan error
	clients   []*service.Client
	trans     []*http.Transport
}

// wireSystem is how a schedd request names its system: a topology family
// and the paper's heterogeneity model with its seed, which the server
// materializes itself.
type wireSystem struct {
	topo *service.TopoSpecWire
	het  *service.HetSpec
}

// wireInstance draws a heterogeneity seed for a job graph and builds the
// system the server materializes from the request's topo and het fields:
// the network from the topo's default seed, the factors from the het seed.
// Requests stay small, so the WAL records what a client sends rather than
// factor matrices of edges x links numbers.
func (b *builder) wireInstance(name string, g *graph.Graph, net scheddNet, t0 time.Time) (*instance, wireSystem, error) {
	ws := wireSystem{&service.TopoSpecWire{Kind: net.topo, Procs: net.procs},
		&service.HetSpec{Lo: hetLo, Hi: hetHi, Seed: 1 + b.rng.Int63n(1<<62)}}
	tk, err := gen.TopoKindByName(net.topo)
	if err != nil {
		return nil, ws, err
	}
	nw, err := gen.Topology(gen.TopoSpec{Kind: tk, Procs: net.procs}, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, ws, err
	}
	sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), hetLo, hetHi, rand.New(rand.NewSource(ws.het.Seed)))
	if err != nil {
		return nil, ws, err
	}
	gj, err := g.MarshalJSON()
	if err != nil {
		return nil, ws, err
	}
	b.tr.record(0, 0, 0, "build.instance", t0, time.Now(), name)
	inst, err := b.load(name, gj, sys)
	return inst, ws, err
}

// setupSchedd builds the job templates and their library answers, then
// starts the server on loopback with a WAL store and warms one connection
// per client.
func setupSchedd(ctx context.Context, cfg runConfig, bsa sched.Scheduler, tr *tracer) (*scheddEnv, error) {
	b := newBuilder(cfg.seed, tr)
	env := &scheddEnv{pool: &libPool{}}
	var insts []*instance
	var wire []wireSystem
	add := func(name string, g *graph.Graph, i int, t0 time.Time) error {
		inst, ws, err := b.wireInstance(name, g, scheddNets[i%len(scheddNets)], t0)
		if err != nil {
			return err
		}
		insts, wire = append(insts, inst), append(wire, ws)
		return nil
	}
	for i, name := range scheddTestdata {
		t0 := time.Now()
		g, err := workload.LoadFile(filepath.Join("testdata", "workloads", name), workload.Options{})
		if err != nil {
			return nil, err
		}
		tr.record(0, 0, 0, "build.import", t0, time.Now(), name)
		if err := add(name, g, i, time.Now()); err != nil {
			return nil, err
		}
	}
	for i := 0; i < scheddGenerated; i++ {
		t0 := time.Now()
		family, size, gran := families[i%len(families)], 20+40*i/(scheddGenerated-1), []float64{0.1, 1, 10}[i%3]
		kind, err := gen.KindByName(family)
		if err != nil {
			return nil, err
		}
		g, err := gen.Generate(gen.Spec{Kind: kind, Size: size, Granularity: gran}, b.rng)
		if err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("%s-%d-g%g", family, size, gran), g, i, t0); err != nil {
			return nil, err
		}
	}
	for i, inst := range insts {
		env.pool.ops = append(env.pool.ops, &libOp{name: inst.name, inst: inst, seed: int64(i + 1)})
	}

	// The library's answers, checked like any library op.
	env.refs = &libLoop{ctx: ctx, bsa: bsa, pool: env.pool,
		makespan: make([]float64, len(insts)), seen: make([]bool, len(insts))}
	results := make([]*sched.Result, len(insts))
	st := env.refs.run(0, tr, func(i int, res *sched.Result) { results[i] = res })
	if st.failed > 0 {
		return nil, fmt.Errorf("library reference runs failed")
	}
	for i, inst := range insts {
		op := env.pool.ops[i]
		want, err := compactSchedule(results[i])
		if err != nil {
			return nil, err
		}
		d, err := b.delta(deltaKinds[i%len(deltaKinds)], inst.problem, results[i])
		if err != nil {
			return nil, fmt.Errorf("delta %s: %w", inst.name, err)
		}
		warm, err := sched.Reschedule(ctx, *results[i], d.delta, sched.WithSeed(op.seed))
		if err == nil {
			err = warm.Schedule.Verify()
		}
		if err != nil {
			return nil, fmt.Errorf("library reschedule %s: %w", inst.name, err)
		}
		rescheduled, err := compactSchedule(warm)
		if err != nil {
			return nil, err
		}
		dj, err := d.delta.MarshalJSON()
		if err != nil {
			return nil, err
		}
		env.templates = append(env.templates, &template{
			req: service.ScheduleRequest{Algo: "bsa", Graph: inst.graphJSON, Topo: wire[i].topo, Het: wire[i].het,
				Seed: op.seed},
			want: want, deltaJSON: dj, rescheduled: rescheduled, res: results[i], delta: d,
		})
	}

	env.pool.digest = b.sum()

	if err := env.start(tr); err != nil {
		env.stop(ctx)
		return nil, err
	}
	for _, c := range env.clients {
		if err := c.Health(ctx); err != nil {
			env.stop(ctx)
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := syncOp(ctx, c, env.templates[0]); err != nil {
			env.stop(ctx)
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

// start opens the WAL in a fresh directory under .bench_build, starts the
// server on a loopback port and makes one client per closed-loop caller.
func (env *scheddEnv) start(tr *tracer) error {
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "schedd-wal-")
	if err != nil {
		return err
	}
	env.walDir = dir
	if env.wal, err = service.OpenWAL(dir); err != nil {
		return err
	}
	var store service.Store = env.wal
	if tr != nil {
		store = &timedStore{Store: env.wal, tr: tr}
	}
	// A short TTL keeps a few seconds of finished jobs, so memory and the
	// WAL hold steady over a run instead of growing with its length.
	env.srv = service.New(service.Config{Store: store, JobTTL: jobTTL})
	var handler http.Handler = env.srv.Handler()
	if tr != nil {
		handler = timedHandler(handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: handler}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	for i := 0; i < scheddClients; i++ {
		t := &http.Transport{MaxIdleConnsPerHost: 4}
		env.trans = append(env.trans, t)
		var rt http.RoundTripper = t
		if tr != nil {
			rt = &timedTransport{base: t, tr: tr}
		}
		env.clients = append(env.clients, service.NewClient(base, &http.Client{Transport: rt}))
	}
	return nil
}

// stop drains the server (which closes the WAL), shuts the listener and
// removes the WAL directory. It returns the WAL's size on disk.
func (env *scheddEnv) stop(ctx context.Context) int64 {
	if env.srv != nil {
		dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		if err := env.srv.Drain(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
		}
		cancel()
	} else if env.wal != nil {
		env.wal.Close()
	}
	if env.hs != nil {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		env.hs.Shutdown(sctx)
		cancel()
		if err := <-env.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}
	for _, t := range env.trans {
		t.CloseIdleConnections()
	}
	var size int64
	if env.walDir != "" {
		filepath.Walk(env.walDir, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() {
				size += fi.Size()
			}
			return nil
		})
		os.RemoveAll(env.walDir)
	}
	return size
}

func compactSchedule(res *sched.Result) ([]byte, error) {
	data, err := res.Schedule.MarshalJSON()
	if err != nil {
		return nil, err
	}
	return compact(data)
}

// compact normalizes a schedule document's whitespace: the server indents
// its responses, the library does not.
func compact(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sameBytes(got json.RawMessage, want []byte) error {
	c, err := compact(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(c, want) {
		return fmt.Errorf("schedd schedule differs from the library's")
	}
	return nil
}

func checkDone(v *service.JobView, want []byte) error {
	if v.Status != service.JobDone || v.Result == nil {
		return fmt.Errorf("job %s ended %s", v.ID, v.Status)
	}
	return sameBytes(v.Result.Schedule, want)
}

func syncOp(ctx context.Context, c *service.Client, t *template) error {
	resp, err := c.Schedule(ctx, t.req)
	if err != nil {
		return err
	}
	return sameBytes(resp.Schedule, t.want)
}

// scheddClient is one closed-loop caller.
type scheddClient struct {
	id    int
	c     *service.Client
	env   *scheddEnv
	tr    *tracer
	next  int            // template cursor
	done  []string       // finished async job IDs
	doneT map[string]int // job ID -> template index
	lat   map[string][]float64
	all   []float64
	ends  []time.Time          // completion time of every successful op
	stats []map[string]float64 // engine counters of traced sync ops
	// engineMS is the server-side run time of traced sync ops.
	engineMS []float64
	failed   int
	ops      int
}

func (sc *scheddClient) template() (int, *template) {
	i := (sc.next*scheddClients + sc.id) % len(sc.env.templates)
	sc.next++
	return i, sc.env.templates[i]
}

// finished returns a finished job to read or reschedule: the client's
// most recent one.
func (sc *scheddClient) finished() (string, *template, error) {
	if len(sc.done) == 0 {
		return "", nil, fmt.Errorf("no finished job yet")
	}
	id := sc.done[len(sc.done)-1]
	return id, sc.env.templates[sc.doneT[id]], nil
}

func (sc *scheddClient) op(ctx context.Context, kind string) error {
	c := sc.c
	switch kind {
	case "sync":
		_, t := sc.template()
		resp, err := c.Schedule(ctx, t.req)
		if err != nil {
			return err
		}
		if sc.tr != nil {
			sc.stats = append(sc.stats, resp.Stats)
			sc.engineMS = append(sc.engineMS, float64(resp.ElapsedNS)/1e6)
		}
		return sameBytes(resp.Schedule, t.want)
	case "async":
		i, t := sc.template()
		v, err := c.Submit(ctx, t.req)
		if err != nil {
			return err
		}
		if v, err = c.Watch(ctx, v.ID, nil); err != nil {
			return err
		}
		if err := checkDone(v, t.want); err != nil {
			return err
		}
		sc.done = append(sc.done, v.ID)
		sc.doneT[v.ID] = i
		return nil
	case "batch":
		req := service.BatchRequest{}
		var ts []*template
		for range batchSize {
			_, t := sc.template()
			req.Jobs = append(req.Jobs, t.req)
			ts = append(ts, t)
		}
		resp, err := c.SubmitBatch(ctx, req)
		if err != nil {
			return err
		}
		if len(resp.Jobs) != len(ts) {
			return fmt.Errorf("batch answered %d of %d jobs", len(resp.Jobs), len(ts))
		}
		for k, item := range resp.Jobs {
			if item.Error != nil {
				return item.Error
			}
			v, err := c.Watch(ctx, item.Job.ID, nil)
			if err != nil {
				return err
			}
			if err := checkDone(v, ts[k].want); err != nil {
				return err
			}
		}
		return nil
	case "reschedule":
		id, t, err := sc.finished()
		if err != nil {
			return err
		}
		v, err := c.Reschedule(ctx, id, service.RescheduleRequest{Delta: t.deltaJSON, Seed: t.req.Seed})
		if err != nil {
			return err
		}
		if v, err = c.Watch(ctx, v.ID, nil); err != nil {
			return err
		}
		return checkDone(v, t.rescheduled)
	case "lookup":
		id, t, err := sc.finished()
		if err != nil {
			return err
		}
		v, err := c.Job(ctx, id)
		if err != nil {
			return err
		}
		return checkDone(v, t.want)
	}
	return fmt.Errorf("unknown op %q", kind)
}

// loop runs the client's op cycle until the deadline.
func (sc *scheddClient) loop(ctx context.Context, deadline time.Time) {
	for k := 0; time.Now().Before(deadline); k++ {
		kind := opKinds[k%len(opKinds)]
		opID := sc.tr.newID()
		octx, cancel := context.WithTimeout(withOp(ctx, opID), opTimeout)
		t0 := time.Now()
		err := sc.op(octx, kind)
		t1 := time.Now()
		cancel()
		sc.tr.record(opID, 0, opID, "op", t0, t1, kind)
		sc.ops++
		if err != nil {
			sc.failed++
			if sc.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: schedd %s op failed: %v\n", kind, err)
			}
			continue
		}
		ms := float64(t1.Sub(t0)) / 1e6
		sc.lat[kind] = append(sc.lat[kind], ms)
		sc.all = append(sc.all, ms)
		sc.ends = append(sc.ends, t1)
	}
}

// loopOut merges the clients' results of one closed loop.
type loopOut struct {
	lat      []float64
	byKind   map[string][]float64
	stats    []map[string]float64
	engineMS []float64
	ops      int
	failed   int
	start    time.Time
	d        time.Duration
	ends     []time.Time // completion time of every successful op
	peakRSS  float64
	alloc    uint64
}

// closedLoop runs every client until d has elapsed and waits for each.
// Clients keep their finished jobs across loops.
func (env *scheddEnv) closedLoop(ctx context.Context, d time.Duration, clients []*scheddClient) loopOut {
	a0 := totalAlloc()
	t0 := time.Now()
	deadline := t0.Add(d)
	rss := sampleRSS()
	var wg sync.WaitGroup
	for _, sc := range clients {
		sc.lat, sc.all, sc.ends, sc.stats, sc.engineMS, sc.ops, sc.failed = map[string][]float64{}, nil, nil, nil, nil, 0, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.loop(ctx, deadline)
		}()
	}
	wg.Wait()
	out := loopOut{byKind: map[string][]float64{}, start: t0, d: d, alloc: totalAlloc() - a0, peakRSS: rss.peak()}
	for _, sc := range clients {
		out.lat = append(out.lat, sc.all...)
		out.ends = append(out.ends, sc.ends...)
		for k, v := range sc.lat {
			out.byKind[k] = append(out.byKind[k], v...)
		}
		out.stats = append(out.stats, sc.stats...)
		out.engineMS = append(out.engineMS, sc.engineMS...)
		out.ops += sc.ops
		out.failed += sc.failed
	}
	return out
}

// asStats summarizes a closed loop. Ops per second is the median, over
// the loop's one-second windows, of the completion rate within each window
// (completions after its first one over the time from its first to its
// last), so a stretch slowed by another process on the machine, or by the
// store compacting its log, does not set it.
func (o loopOut) asStats() loopStats {
	windows := max(1, int(o.d/rateWindow))
	first := make([]time.Time, windows)
	last := make([]time.Time, windows)
	counts := make([]int, windows)
	for _, t := range o.ends {
		k := int(t.Sub(o.start) / rateWindow)
		if k >= windows {
			continue
		}
		if counts[k] == 0 || t.Before(first[k]) {
			first[k] = t
		}
		if t.After(last[k]) {
			last[k] = t
		}
		counts[k]++
	}
	var rates []float64
	for k, n := range counts {
		if n > 1 {
			rates = append(rates, float64(n-1)/last[k].Sub(first[k]).Seconds())
		}
	}
	return loopStats{lat: o.lat, opsPerS: quantile(rates, 0.5), alloc: o.alloc,
		attempts: o.ops, failed: o.failed, peakRSS: o.peakRSS}
}

// rateWindow is the length of the slices of a closed loop that ops per
// second is measured over.
const rateWindow = time.Second

func runSchedd(ctx context.Context, cfg runConfig) (*report, error) {
	bsa, err := sched.Lookup("bsa")
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var env *scheddEnv
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		var repTr *tracer
		if rep == setupReps-1 {
			repTr = tr
		}
		t0 := time.Now()
		e, err := setupSchedd(ctx, cfg, bsa, repTr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if env != nil {
			env.stop(ctx)
			if e.pool.digest != env.pool.digest {
				e.stop(ctx)
				return nil, fmt.Errorf("set-up is not deterministic: pool digest %s then %s", env.pool.digest, e.pool.digest)
			}
		}
		env = e
	}
	rep := &report{workload: cfg.workload, seed: cfg.seed, digest: env.pool.digest, layer: map[string]float64{}}
	rep.setupS = quantile(setups, 0.5)
	rep.makespanNorm = env.refs.makespanNorm()
	releaseSetupGarbage()
	clients := env.loopClients(nil)

	if !cfg.trace {
		out := env.closedLoop(ctx, cfg.seconds, clients)
		env.stop(ctx)
		rep.addLoop(out.asStats())
		return rep, nil
	}

	// The server-side wrappers stay installed; a paused tracer makes them
	// record nothing during the untraced half.
	tr.paused.Store(true)
	untraced := env.closedLoop(ctx, cfg.seconds/2, clients)
	tr.paused.Store(false)
	for _, sc := range clients {
		sc.tr = tr
	}
	traced := env.closedLoop(ctx, cfg.seconds/2, clients)
	rep.addLoop(untraced.asStats())
	m := rep.layer
	m["tracing_overhead"] = ratio(quantile(traced.lat, 0.5), quantile(untraced.lat, 0.5))
	attempted, failed := env.serviceLayers(ctx, bsa, tr, traced, m)
	rep.attempted += attempted
	rep.failed += failed
	layerCore(m, traced.stats, traced.engineMS)
	layerBuild(m, tr)
	m["check.validate_ms"] = mean(tr.durations("check.validate"))
	m["check.replay_ms"] = mean(tr.durations("check.replay"))
	ladder := env.refs.ladder(tr)
	for k, v := range ladder.ms {
		m[k] = v
	}
	rep.attempted += ladder.attempts
	rep.failed += ladder.failed
	rep.selfTimes = tr.selfTimes()
	rep.spans = tr
	return rep, nil
}

// loopClients makes one closed-loop caller per client connection.
func (env *scheddEnv) loopClients(tr *tracer) []*scheddClient {
	var clients []*scheddClient
	for i, c := range env.clients {
		clients = append(clients, &scheddClient{id: i, c: c, env: env, tr: tr, doneT: map[string]int{}})
	}
	return clients
}

// serviceLayers fills the service, warm-start and Delta.Apply metrics from
// a traced closed loop that has just run against env, and stops env. It
// returns the ops it attempted and how many failed, the loop's included.
func (env *scheddEnv) serviceLayers(ctx context.Context, bsa sched.Scheduler, tr *tracer, traced loopOut, m map[string]float64) (attempted, failed int) {
	attempted, failed = traced.ops, traced.failed
	metrics, err := env.clients[0].Metrics(ctx)
	if err != nil {
		failed++
		fmt.Fprintln(os.Stderr, "perfbench: metrics:", err)
	}
	m["service.queue_full"] = float64(metrics["jobs_rejected"])
	jobs := env.wal.Len()
	walBytes := env.stop(ctx)
	m["service.wal_bytes_per_job"] = ratio(float64(walBytes), float64(jobs))
	layerService(m, tr, traced.byKind)
	m["sched.delta_apply_ms"] = mean(tr.durations("sched.delta_apply"))
	attempted += 2 * len(env.templates)
	if err := env.measureWarm(ctx, bsa, tr, m); err != nil {
		failed++
		fmt.Fprintln(os.Stderr, "perfbench: warm start:", err)
	}
	return attempted, failed
}

// serviceSeconds is how long a library workload's traced run drives schedd.
const serviceSeconds = 3 * time.Second

// measureService gives a library workload's traced run the service and
// warm-start layers: it sets schedd up from the run's seed, drives it with
// the traced closed loop for serviceSeconds and fills those layers'
// metrics. Call it after the library's own layers are filled, since its
// set-up records build and engine spans of its own.
func measureService(ctx context.Context, cfg runConfig, bsa sched.Scheduler, tr *tracer, m map[string]float64) (attempted, failed int, err error) {
	env, err := setupSchedd(ctx, cfg, bsa, tr)
	if err != nil {
		return 0, 0, fmt.Errorf("service layers: %w", err)
	}
	traced := env.closedLoop(ctx, serviceSeconds, env.loopClients(tr))
	attempted, failed = env.serviceLayers(ctx, bsa, tr, traced, m)
	return attempted, failed, nil
}

// layerService fills the service metrics from the handler, transport and
// store spans and the per-kind op latencies of the traced loop.
func layerService(m map[string]float64, tr *tracer, byKind map[string][]float64) {
	tr.mu.Lock()
	handler := map[int64]span{} // by request span ID
	var handlerMS []float64
	var wire []float64
	for _, s := range tr.spans {
		if s.Name == "service.handler" {
			handler[s.Parent] = s
			if !isEvents(s.Attr) {
				handlerMS = append(handlerMS, float64(s.End-s.Start)/1e6)
			}
		}
	}
	for _, s := range tr.spans {
		if h, ok := handler[s.ID]; ok && s.Name == "service.request" && !isEvents(s.Attr) {
			wire = append(wire, float64((s.End-s.Start)-(h.End-h.Start))/1e6)
		}
	}
	tr.mu.Unlock()
	m["service.handler_ms_p50"] = quantile(handlerMS, 0.5)
	m["service.handler_ms_p99"] = quantile(handlerMS, 0.99)
	m["service.wire_ms"] = mean(wire)
	m["service.store_put_ms"] = mean(tr.durations("service.store_put"))
	m["service.store_finish_ms"] = mean(tr.durations("service.store_finish"))
	for _, k := range []string{"sync", "async", "batch", "reschedule", "lookup"} {
		m["service."+k+"_ms"] = quantile(byKind[k], 0.5)
	}
}

// isEvents reports whether a request attribute names an SSE stream, which
// stays open until its job ends and so is not a request/response time.
func isEvents(attr string) bool { return strings.HasSuffix(attr, "/events") }

type opKey struct{}

func withOp(ctx context.Context, op int64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

// Request headers that carry a client span to the server's handler span.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrOp   = "X-Perfbench-Op"
)

// timedTransport records a span per HTTP request, as seen by the client
// from sending it until closing the response body, and passes the span's
// ID to the server in a header.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op, _ := req.Context().Value(opKey{}).(int64)
	id := t.tr.newID()
	r := req.Clone(req.Context())
	r.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	r.Header.Set(hdrOp, strconv.FormatInt(op, 10))
	t0 := time.Now()
	end := func() { t.tr.record(id, op, op, "service.request", t0, time.Now(), req.Method+" "+req.URL.Path) }
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, end: end}
	return resp, nil
}

// timedBody ends its request's span when the client closes it.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// timedHandler records a span around the server's handler, parented to
// the client's request span.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record(0, parent, op, "service.handler", t0, time.Now(), r.Method+" "+r.URL.Path)
	})
}

// timedStore records a span around each write the server makes to its
// store on accepting and on finishing a job.
type timedStore struct {
	service.Store
	tr *tracer
}

func (s *timedStore) Put(rec *service.Record) error {
	t0 := time.Now()
	err := s.Store.Put(rec)
	s.tr.record(0, 0, 0, "service.store_put", t0, time.Now(), rec.ID)
	return err
}

func (s *timedStore) Finish(rec *service.Record) error {
	t0 := time.Now()
	err := s.Store.Finish(rec)
	s.tr.record(0, 0, 0, "service.store_finish", t0, time.Now(), rec.ID)
	return err
}

// deltaKinds are the delta kinds the templates take in turn.
var deltaKinds = []string{"remove_proc", "exec_factor", "comm_factor", "add_task"}

// namedDelta is one delta of a base problem and the post-delta problem.
type namedDelta struct {
	kind  string
	delta sched.Delta
	post  sched.Problem
}

// delta draws one delta of a kind against a base problem and its
// schedule: removing the processor that runs the most tasks (the removal
// that matters to a user), an execution-factor change of a (task,
// processor) pair, a communication-factor change of a (message, link)
// pair, or an appended task with two incoming edges.
func (b *builder) delta(kind string, p sched.Problem, base *sched.Result) (namedDelta, error) {
	g, nw := p.Graph, p.System.Net
	task := func() string { return g.Task(graph.TaskID(b.rng.Intn(g.NumTasks()))).Name }
	proc := func(q system.ProcID) string { return nw.Proc(q).Name }
	anyProc := func() string { return proc(system.ProcID(b.rng.Intn(nw.NumProcs()))) }
	factor := func() float64 { return hetLo + b.rng.Float64()*(hetHi-hetLo) }
	db := sched.NewDeltaBuilder()
	switch kind {
	case "remove_proc":
		load := make([]int, nw.NumProcs())
		for _, t := range base.Schedule.Tasks() {
			load[t.Proc]++
		}
		busiest := 0
		for q, n := range load {
			if n > load[busiest] {
				busiest = q
			}
		}
		// Removing one processor of a ring, mesh, hypercube or clique of 8
		// leaves it connected; Apply re-checks.
		db.RemoveProc(proc(system.ProcID(busiest)))
	case "exec_factor":
		db.SetExecFactor(task(), anyProc(), factor())
	case "comm_factor":
		e := g.Edge(graph.EdgeID(b.rng.Intn(g.NumEdges())))
		l := nw.Link(system.LinkID(b.rng.Intn(nw.NumLinks())))
		db.SetCommFactor(g.Task(e.From).Name, g.Task(e.To).Name, proc(l.A), proc(l.B), factor())
	case "add_task":
		db.AddTask("appended", g.MeanExecCost()*(0.5+b.rng.Float64()))
		for _, t := range b.rng.Perm(g.NumTasks())[:min(2, g.NumTasks())] {
			db.AddEdge(g.Task(graph.TaskID(t)).Name, "appended", g.MeanCommCost()*(0.5+b.rng.Float64()))
		}
	}
	d, err := db.Build()
	if err != nil {
		return namedDelta{}, err
	}
	t0 := time.Now()
	post, err := d.Apply(p)
	if err != nil {
		return namedDelta{}, fmt.Errorf("apply %s: %w", kind, err)
	}
	b.tr.record(0, 0, 0, "sched.delta_apply", t0, time.Now(), kind)
	data, err := d.MarshalJSON()
	if err != nil {
		return namedDelta{}, err
	}
	b.digest.Write(data)
	return namedDelta{kind, d, post}, nil
}

// measureWarm re-runs every template's reschedule through the library,
// traced, next to a cold BSA run on the same post-delta problem, and fills
// the warm-start metrics: means per reschedule of the warm trace's
// counters, and the median warm latency over the median cold latency.
func (env *scheddEnv) measureWarm(ctx context.Context, bsa sched.Scheduler, tr *tracer, m map[string]float64) error {
	var dirty, frac, ev, sw, reb, hit, look float64
	var warmMS, coldMS []float64
	for _, t := range env.templates {
		seed := sched.WithSeed(t.req.Seed)
		opID := tr.newID()
		t0 := time.Now()
		warm, err := sched.Reschedule(ctx, *t.res, t.delta.delta, seed)
		t1 := time.Now()
		if err != nil {
			return err
		}
		tr.record(0, opID, opID, "warm.reschedule", t0, t1, t.delta.kind)
		cold, err := bsa.Schedule(ctx, t.delta.post, seed)
		t2 := time.Now()
		if err != nil {
			return err
		}
		tr.record(0, opID, opID, "warm.cold", t1, t2, t.delta.kind)
		tr.record(opID, 0, opID, "op", t0, t2, "warm")
		if got, err := compactSchedule(warm); err != nil || !bytes.Equal(got, t.rescheduled) {
			return fmt.Errorf("warm reschedule differs from the set-up run's")
		}
		if err := cold.Schedule.Verify(); err != nil {
			return err
		}
		wt, ok := warm.Reschedule()
		if !ok {
			return fmt.Errorf("reschedule result carries no warm-start trace")
		}
		warmMS = append(warmMS, float64(t1.Sub(t0))/1e6)
		coldMS = append(coldMS, float64(t2.Sub(t1))/1e6)
		dirty += float64(wt.DirtyTasks)
		frac += float64(wt.DirtyTasks) / float64(t.delta.post.Graph.NumTasks())
		ev += float64(wt.Evaluations)
		sw += float64(wt.Sweeps)
		reb += float64(wt.Rebuilds)
		hit += float64(wt.CacheHits)
		look += float64(wt.CacheHits + wt.CachePartials + wt.CacheMisses)
	}
	n := float64(len(env.templates))
	m["warm.dirty_tasks"] = dirty / n
	m["warm.dirty_frac"] = frac / n
	m["warm.evaluations"] = ev / n
	m["warm.sweeps"] = sw / n
	m["warm.rebuilds"] = reb / n
	m["warm.cache_hit_ratio"] = ratio(hit, look)
	m["warm.cold_ratio"] = ratio(quantile(warmMS, 0.5), quantile(coldMS, 0.5))
	return nil
}
