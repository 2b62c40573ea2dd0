package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/ast"
	"hypodatalog/internal/bottomup"
	"hypodatalog/internal/engine"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/magic"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/workload"
)

// Sizes of the cold-eval workload.
const (
	coldN     = 48 // closure, demand and whatif: reachability over v0..v47
	coldExtra = 48 // non-spine edges of that graph
	hamN      = 12 // Hamiltonian path (paper Examples 7-8) digraph size
	parityN   = 16 // parity (paper Example 6) item count of the yes instance
	parityNo  = 9  // and of the no instance, whose refutation is exponential in it
)

// coldKinds are the op kinds of cold-eval. A round (coldSet.round)
// repeats the fast kinds so that every kind takes a visible share of a
// round rather than the slowest kind hiding the others.
var coldKinds = []string{"closure", "demand", "search", "whatif"}

// kindMetric names the per-layer metric of a cold kind's time per round.
func kindMetric(kind string) string {
	if kind == "whatif" {
		return "whatif_p50_ms"
	}
	return "cold_" + kind + "_p50_ms"
}

// coldOp is one cold-eval library call: a fresh engine (hypo.New) and
// one Ask, except whatif, which asks under a never-seen hypothetical
// edge on a warm engine.
type coldOp struct {
	kind   string
	prog   *hypo.Program
	mode   hypo.Mode
	demand bool
	query  string
	add    string
	want   bool
}

func (o coldOp) String() string {
	if o.add != "" {
		return fmt.Sprintf("%s %s add %s", o.kind, o.query, o.add)
	}
	return o.kind + " " + o.query
}

// coldSet is the parsed inputs of cold-eval over a reachability graph.
// The seed draws the order of the closure and demand targets and where
// the what-ifs start in the never-seen edges.
type coldSet struct {
	g      *graph
	src    string
	reach  *hypo.Program
	pairs  [][2]int // closure and demand targets, half of them unreachable
	search []coldOp
	// fresh lists never-seen edges: fresh[0] those into the first node,
	// fresh[1] the others. Neither generated graph has an edge into the
	// first node, so reach(head, first) holds under the former and not
	// under the latter.
	fresh [2][][2]int
	from  int // the seed-drawn start in fresh
}

// targetPairs is how many closure and demand targets a coldSet holds;
// a round demands each once.
const targetPairs = 16

func newColdSet(g *graph, seed int64) (*coldSet, error) {
	cs := &coldSet{g: g, src: g.program()}
	var err error
	if cs.reach, err = hypo.Parse(cs.src); err != nil {
		return nil, err
	}
	// Targets fixed by shapeSeed, so every seed does the same work:
	// the first reachable and the first unreachable pairs in a fixed order.
	var yes, no [][2]int
	for _, i := range rand.New(rand.NewSource(shapeSeed)).Perm(g.n * g.n) {
		p := [2]int{i / g.n, i % g.n}
		if g.reaches(p[0], p[1], nil) {
			yes = append(yes, p)
		} else {
			no = append(no, p)
		}
	}
	if len(yes) < targetPairs/2 || len(no) < targetPairs/2 {
		return nil, fmt.Errorf("graph has %d reachable and %d unreachable pairs, want %d of each", len(yes), len(no), targetPairs/2)
	}
	cs.pairs = append(yes[:targetPairs/2:targetPairs/2], no[:targetPairs/2]...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cs.pairs), func(i, j int) { cs.pairs[i], cs.pairs[j] = cs.pairs[j], cs.pairs[i] })

	// The search instances are fixed by shapeSeed alone. A round runs
	// each Hamiltonian instance (a planted yes, a random no) twice and
	// parity once at an even and once at an odd item count.
	shape := rand.New(rand.NewSource(shapeSeed))
	var ham []coldOp
	for _, d := range []workload.Digraph{workload.PlantedHamiltonian(shape, hamN, 0.15), workload.RandomDigraph(shape, hamN, 0.2)} {
		p, err := hypo.Parse(workload.HamiltonianProgram(d))
		if err != nil {
			return nil, err
		}
		ham = append(ham, coldOp{kind: "search", prog: p, query: "yes", want: workload.HasHamiltonianPath(d)})
	}
	for _, n := range []int{parityN, parityNo} {
		p, err := hypo.Parse(workload.ParityProgram(n))
		if err != nil {
			return nil, err
		}
		cs.search = append(cs.search, ham...)
		cs.search = append(cs.search, coldOp{kind: "search", prog: p, query: "even", want: n%2 == 0})
	}

	for _, e := range g.freshEdges() {
		k := 1
		if e[1] == g.first() {
			k = 0
		}
		cs.fresh[k] = append(cs.fresh[k], e)
	}
	if len(cs.fresh[0]) == 0 || len(cs.fresh[1]) == 0 {
		return nil, fmt.Errorf("graph has no never-seen edge of some kind")
	}
	cs.from = rng.Intn(len(cs.fresh[0]) * len(cs.fresh[1]))
	return cs, nil
}

// closure asks reach for the pair on a fresh engine: the full-stratum
// cascade, or demand-driven.
func (cs *coldSet) closure(p [2]int, demand bool) coldOp {
	kind := "closure"
	if demand {
		kind = "demand"
	}
	return coldOp{kind: kind, prog: cs.reach, mode: hypo.ModeCascade, demand: demand,
		query: fmt.Sprintf("reach(v%d, v%d)", p[0], p[1]), want: cs.g.reaches(p[0], p[1], nil)}
}

// whatif asks whether the head of a never-seen edge of list k reaches
// the first node once that edge is added.
func (cs *coldSet) whatif(i, k int) coldOp {
	e := cs.fresh[k][(cs.from+i)%len(cs.fresh[k])]
	return coldOp{kind: "whatif", prog: cs.reach, mode: hypo.ModeCascade,
		query: fmt.Sprintf("reach(v%d, v%d)", e[1], cs.g.first()), add: edgeAtom(e), want: cs.g.reaches(e[1], cs.g.first(), &e)}
}

// round is one cold-eval read: the four kinds in fixed proportions, one
// closure, a demand per target, the search instances and a what-if,
// answered yes in even rounds and no in odd ones (both cost the same).
func (cs *coldSet) round(i int) []coldOp {
	ops := []coldOp{cs.closure(cs.pairs[i%len(cs.pairs)], false)}
	for _, p := range cs.pairs {
		ops = append(ops, cs.closure(p, true))
	}
	ops = append(ops, cs.search...)
	return append(ops, cs.whatif(i, i%2))
}

// warmEngine is the long-lived engine whatifs run on.
func (cs *coldSet) warmEngine(m *metrics.Set) (*hypo.Engine, error) {
	e, err := hypo.New(cs.reach, hypo.Options{Mode: hypo.ModeCascade, Metrics: m})
	if err != nil {
		return nil, err
	}
	_, err = e.Ask(fmt.Sprintf("reach(v%d, v%d)", cs.g.first(), cs.g.last()))
	return e, err
}

// run executes the op on a fresh engine, or on warm for a whatif, and
// returns the goals the read's Stats delta counts, as ReadInfo.Stats
// reports them.
func (o coldOp) run(warm *hypo.Engine, m *metrics.Set) (int64, error) {
	e := warm
	if o.add == "" {
		var err error
		if e, err = hypo.New(o.prog, hypo.Options{Mode: o.mode, DemandDriven: o.demand, Metrics: m}); err != nil {
			return 0, o.check(false, err)
		}
	}
	before := e.Stats().Goals
	var got bool
	var err error
	if o.add != "" {
		got, err = e.AskUnder(o.query, o.add)
	} else {
		got, err = e.Ask(o.query)
	}
	return e.Stats().Goals - before, o.check(got, err)
}

func (o coldOp) check(got bool, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", o, err)
	}
	if got != o.want {
		return wrongf("%s: got %v, want %v", o, got, o.want)
	}
	return nil
}

type coldLoop struct {
	rounds  []time.Duration
	byKind  map[string][]float64 // per round: ms spent in ops of the kind
	ops     int64
	goals   int64 // summed over the reads' Stats deltas
	elapsed time.Duration
	warm    *hypo.Engine
	memLive float64 // live heap in MB when a warm engine has served warmRounds rounds' whatifs
}

// warmRounds is how many rounds' whatifs share one warm engine. The
// engine keeps a materialisation per hypothetical state it has seen, so
// a run-long engine would grow with the number of rounds, that is, with
// the speed of the program under test.
const warmRounds = 8

// loop runs up to n rounds until the deadline; the first round is
// round from. Warm-engine builds are not timed; elapsed sums the rounds.
func (cs *coldSet) loop(m *metrics.Set, deadline time.Time, from, n int, tr *tracer) (coldLoop, error) {
	out := coldLoop{byKind: map[string][]float64{}}
	for i := from; i-from < n && time.Now().Before(deadline); i++ {
		if (i-from)%warmRounds == 0 {
			if out.warm != nil {
				out.memLive = max(out.memLive, liveHeapMB())
			}
			var err error
			if out.warm, err = cs.warmEngine(m); err != nil {
				return out, err
			}
		}
		r0 := time.Now()
		spent := map[string]float64{}
		for _, o := range cs.round(i) {
			t0 := time.Now()
			goals, err := o.run(out.warm, m)
			if err != nil {
				return out, err
			}
			t1 := time.Now()
			out.ops++
			out.goals += goals
			spent[o.kind] += ms(t1.Sub(t0))
			tr.record("cold."+o.kind, "round", int64(i), t0, t1)
		}
		r1 := time.Now()
		tr.record("round", "", int64(i), r0, r1)
		out.rounds = append(out.rounds, r1.Sub(r0))
		out.elapsed += r1.Sub(r0)
		for k, v := range spent {
			out.byKind[k] = append(out.byKind[k], v)
		}
	}
	return out, nil
}

// setupCold is one set-up: generate and parse every program and get the
// first checked answer (a closure).
func setupCold(seed int64) (*coldSet, time.Duration, error) {
	t0 := time.Now()
	cs, err := newColdSet(newGraph(coldN, coldExtra), seed)
	if err != nil {
		return nil, 0, err
	}
	if _, err := cs.closure(cs.pairs[0], false).run(nil, metrics.NewSet("perfbench")); err != nil {
		return nil, 0, err
	}
	return cs, time.Since(t0), nil
}

func runColdEval(ctx context.Context, cfg config) (*result, error) {
	var times []float64
	var cs *coldSet
	for i := 0; i < setupRuns; i++ {
		var d time.Duration
		var err error
		if cs, d, err = setupCold(cfg.seed); err != nil {
			return nil, err
		}
		if i >= setupWarm {
			times = append(times, d.Seconds())
		}
	}
	m := metrics.NewSet("perfbench")
	if cfg.trace {
		return traceCold(ctx, cfg, cs, m)
	}
	lp, err := cs.loop(m, time.Now().Add(cfg.window), 0, math.MaxInt, nil)
	if err != nil {
		return nil, err
	}
	mem := lp.memLive
	if mem == 0 { // fewer than warmRounds rounds ran
		mem = liveHeapMB()
		runtime.KeepAlive(lp.warm)
	}
	res := &result{attempted: lp.ops}
	res.set("setup_s", median(times))
	res.set("read_p50_us", median(usAll(lp.rounds)))
	res.set("read_ops_s", float64(len(lp.rounds))/lp.elapsed.Seconds())
	res.set("mem_live_mb", mem)
	return res, nil
}

func traceCold(ctx context.Context, cfg config, cs *coldSet, m *metrics.Set) (*result, error) {
	tr := newTracer()
	res := &result{}
	if err := frontLayers(res, cs.src); err != nil {
		return nil, err
	}
	half := cfg.window / 2
	mp := startMemPeak()
	plain, err := cs.loop(m, time.Now().Add(half), 0, math.MaxInt, nil)
	res.set("mem_peak_mb", mp.end())
	if err != nil {
		return nil, err
	}
	traced, err := cs.loop(m, time.Now().Add(half), len(plain.rounds), math.MaxInt, tr)
	if err != nil {
		return nil, err
	}
	res.attempted = plain.ops + traced.ops
	res.set("fail_frac", 0)
	p50 := func(l coldLoop) float64 { return median(usAll(l.rounds)) }
	ops := func(l coldLoop) float64 { return float64(len(l.rounds)) / l.elapsed.Seconds() }
	res.set("read_p99_us", quantile(usAll(plain.rounds), 0.99))
	res.set("trace.overhead_read_p50_us", p50(traced)-p50(plain))
	res.set("trace.overhead_read_ops_pct", 100*(ops(plain)-ops(traced))/ops(plain))
	for _, k := range coldKinds {
		res.set(kindMetric(k), median(plain.byKind[k]))
	}
	// No server, pool or cache serves cold-eval's own ops.
	for _, c := range []string{"server.shed", "cache.hit_ratio", "cache.carried", "cache.evictions",
		"catchup.incremental", "catchup.fallbacks", "catchup.rebuilds", "catchup.substrate_builds", "pool.news"} {
		res.set(c, 0)
	}
	// The serving layers' self times come from read-warm's op mix
	// replayed over this workload's graph.
	if err := layerProbes(ctx, cfg, readWarmOn(cs.g, cfg.seed), res, tr); err != nil {
		return nil, err
	}
	if err := coldLayers(res, cs, true); err != nil {
		return nil, err
	}
	res.set("trace.spans", float64(len(tr.spans)))
	return res, tr.writeTo(traceFile(cfg))
}

// workCounts are the evaluation-work counts of one cold round, which
// must repeat exactly for a seed.
type workCounts struct {
	SigmaGoals, SigmaTableHits, DeltaMaterialisations, MagicTransforms, MagicFallbacks, ReadInfoGoals int64
}

// countRound runs round 0 with a fresh metric set and counts its work
// from that set, the process-wide Δ counter and the reads' Stats deltas.
func countRound(cs *coldSet) (workCounts, coldLoop, error) {
	m := metrics.NewSet("perfbench")
	delta0 := metrics.Default.DeltaMaterialisations.Value()
	lp, err := cs.loop(m, time.Now().Add(time.Hour), 0, 1, nil)
	if err != nil {
		return workCounts{}, lp, err
	}
	return workCounts{
		SigmaGoals:            m.GoalExpansions.Value(),
		SigmaTableHits:        m.TableHits.Value(),
		DeltaMaterialisations: metrics.Default.DeltaMaterialisations.Value() - delta0,
		MagicTransforms:       m.MagicTransforms.Value(),
		MagicFallbacks:        m.MagicFallbacks.Value(),
		ReadInfoGoals:         lp.goals,
	}, lp, nil
}

// coldLayers measures the evaluation layers on the graph of cs: the
// bare cascade build (internal/engine), the bottom-up fixpoint of the
// closure stratum (internal/bottomup), the magic-sets rewrite
// (internal/magic), and the work counts of two identical cold rounds,
// which must agree exactly. Workloads without cold ops of their own
// (haveKinds false) also report the per-kind cold latencies from those
// two rounds.
func coldLayers(res *result, cs *coldSet, haveKinds bool) error {
	g, prog := cs.g, cs.reach
	cp := prog.Compiled()
	st, err := strat.Stratify(prog.AST())
	if err != nil {
		return err
	}
	dom := ref.Domain(cp)
	var build, mat, transform []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := engine.NewCascade(cp, st, dom); err != nil {
			return err
		}
		build = append(build, ms(time.Since(t0)))

		in := facts.NewInterner(cp.Syms)
		base := facts.NewDB(in)
		for _, f := range cp.Facts {
			if _, err := base.Insert(in.InternGround(f)); err != nil {
				return err
			}
		}
		p, err := bottomup.New(cp, base, dom, st.Delta[0], nil)
		if err != nil {
			return err
		}
		t0 = time.Now()
		model, err := p.Materialise(facts.NewState(base))
		if err != nil {
			return err
		}
		mat = append(mat, ms(time.Since(t0)))
		want := 0
		for x := 0; x < g.n; x++ {
			want += len(nodeSet(g.reachFrom(x, nil)))
		}
		if len(model) != want {
			return wrongf("bottomup.Materialise derived %d reach atoms, want %d", len(model), want)
		}
	}
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := magic.Transform(prog.AST(), ast.PredSig{Name: "reach", Arity: 2}, "bb"); err != nil {
			return err
		}
		transform = append(transform, us(time.Since(t0)))
	}
	res.set("engine.build_ms", median(build))
	res.set("delta.materialise_ms", median(mat))
	res.set("magic.transform_us", median(transform))

	first, lp1, err := countRound(cs)
	if err != nil {
		return err
	}
	second, lp2, err := countRound(cs)
	if err != nil {
		return err
	}
	if first != second {
		return fmt.Errorf("work counts differ between two identical cold rounds: %+v vs %+v", first, second)
	}
	res.set("sigma.goals", float64(first.SigmaGoals))
	res.set("sigma.table_hits", float64(first.SigmaTableHits))
	res.set("delta.materialisations", float64(first.DeltaMaterialisations))
	res.set("magic.transforms", float64(first.MagicTransforms))
	res.set("magic.fallbacks", float64(first.MagicFallbacks))
	res.set("readinfo.goals", float64(first.ReadInfoGoals))
	if !haveKinds {
		for _, k := range coldKinds {
			res.set(kindMetric(k), median(append(lp1.byKind[k], lp2.byKind[k]...)))
		}
	}
	return nil
}

// frontLayers times the front end on the program text: parsing
// (internal/parser) and linear stratification (internal/strat).
func frontLayers(res *result, src string) error {
	var parse, stratify []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		p, err := parser.Parse(src)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := strat.Stratify(p); err != nil {
			return err
		}
		parse = append(parse, ms(t1.Sub(t0)))
		stratify = append(stratify, ms(time.Since(t1)))
	}
	res.set("front.parse_ms", median(parse))
	res.set("front.stratify_ms", median(stratify))
	return nil
}
