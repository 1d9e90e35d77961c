package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"

	"repro/sched"
	"repro/sched/gen"
	"repro/sched/graph"
	"repro/sched/system"
)

// Heterogeneity factors are drawn from [1, 50] and min-normalized, the
// paper's model: every task and message has one resource where it runs at
// its nominal cost.
const hetLo, hetHi = 1, 50

// instSpec describes one generated instance of a pool.
type instSpec struct {
	family string  // gen.KindByName
	size   int     // approximate task count
	gran   float64 // mean exec / mean comm
	topo   string  // gen.TopoKindByName
	procs  int
}

func (s instSpec) String() string {
	return fmt.Sprintf("%s-%d-g%g@%s%d", s.family, s.size, s.gran, s.topo, s.procs)
}

// instance is one imported problem of a pool, with the graph document it
// was imported from.
type instance struct {
	name      string
	problem   sched.Problem
	cpBound   float64
	graphJSON []byte
}

// builder generates pools from one seed and records the set-up spans.
type builder struct {
	rng    *rand.Rand
	tr     *tracer
	digest hash.Hash
}

func newBuilder(seed int64, tr *tracer) *builder {
	return &builder{rng: rand.New(rand.NewSource(seed)), tr: tr, digest: sha256.New()}
}

func (b *builder) sum() string { return hex.EncodeToString(b.digest.Sum(nil)) }

// generate draws the graph and the heterogeneous system of one spec.
func (b *builder) generate(s instSpec) (*graph.Graph, *system.System, error) {
	kind, err := gen.KindByName(s.family)
	if err != nil {
		return nil, nil, err
	}
	tk, err := gen.TopoKindByName(s.topo)
	if err != nil {
		return nil, nil, err
	}
	g, err := gen.Generate(gen.Spec{Kind: kind, Size: s.size, Granularity: s.gran}, b.rng)
	if err != nil {
		return nil, nil, fmt.Errorf("generate %s: %w", s, err)
	}
	nw, err := gen.Topology(gen.TopoSpec{Kind: tk, Procs: s.procs}, b.rng)
	if err != nil {
		return nil, nil, fmt.Errorf("topology %s: %w", s, err)
	}
	sys, err := system.NewRandomMinNormalized(nw, g.NumTasks(), g.NumEdges(), hetLo, hetHi, b.rng)
	if err != nil {
		return nil, nil, fmt.Errorf("system %s: %w", s, err)
	}
	return g, sys, nil
}

// build generates one instance and imports its graph back from the JSON
// interchange format. The system is used as generated: re-parsing factor
// matrices of edges x links numbers would make set-up mostly JSON decoding.
func (b *builder) build(s instSpec) (*instance, error) {
	t0 := time.Now()
	g, sys, err := b.generate(s)
	if err != nil {
		return nil, err
	}
	gj, err := g.MarshalJSON()
	if err != nil {
		return nil, err
	}
	b.tr.record(0, 0, 0, "build.instance", t0, time.Now(), s.String())
	return b.load(s.String(), gj, sys)
}

// load imports a graph document into a checked problem on sys.
func (b *builder) load(name string, gj []byte, sys *system.System) (*instance, error) {
	t0 := time.Now()
	g, err := graph.FromJSON(gj)
	if err != nil {
		return nil, fmt.Errorf("import %s graph: %w", name, err)
	}
	t1 := time.Now()
	b.tr.record(0, 0, 0, "build.import", t0, t1, name)
	p, err := sched.NewProblem(g, sys)
	if err != nil {
		return nil, fmt.Errorf("problem %s: %w", name, err)
	}
	b.tr.record(0, 0, 0, "sched.new_problem", t1, time.Now(), name)
	b.digest.Write(gj)
	hashSystem(b.digest, sys)
	return &instance{name: name, problem: p, cpBound: cpBound(p), graphJSON: gj}, nil
}

// hashSystem adds a system's links and factor matrices to a digest.
func hashSystem(h hash.Hash, sys *system.System) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, l := range sys.Net.Links() {
		put(uint64(l.A)<<32 | uint64(l.B))
	}
	for _, m := range [][][]float64{sys.Exec, sys.Comm} {
		for _, row := range m {
			for _, x := range row {
				put(math.Float64bits(x))
			}
		}
	}
}

// cpBound is the computation-only critical-path bound of a problem: the
// longest path when every task runs at its fastest execution cost and
// messages cost nothing. No schedule can be shorter.
func cpBound(p sched.Problem) float64 {
	g, sys := p.Graph, p.System
	exec := make([]float64, g.NumTasks())
	for _, t := range g.Tasks() {
		exec[t.ID] = math.Inf(1)
		for q := 0; q < sys.Net.NumProcs(); q++ {
			exec[t.ID] = min(exec[t.ID], sys.ExecCost(int(t.ID), system.ProcID(q), t.Cost))
		}
	}
	return graph.CPLength(g, exec, make([]float64, g.NumEdges()))
}
