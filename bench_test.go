package hypo_test

// One testing.B benchmark per experiment of DESIGN.md §4 (E1-E12). Each
// sub-benchmark rebuilds a fresh engine per iteration so the memo tables
// never carry answers across iterations. cmd/hdlbench runs the same
// workloads with correctness checks and renders the EXPERIMENTS.md rows.

import (
	"fmt"
	"math/rand"
	"testing"

	"hypodatalog"
	"hypodatalog/internal/ast"
	"hypodatalog/internal/engine"
	"hypodatalog/internal/generic"
	"hypodatalog/internal/horn"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/strat"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
	"hypodatalog/internal/turing"
	"hypodatalog/internal/workload"
)

// compile parses and compiles a program once; the engines are rebuilt per
// iteration.
func compile(b *testing.B, src string) *ast.CProgram {
	b.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		b.Fatal(err)
	}
	return cp
}

// benchAsk measures fresh-engine evaluation of a 0-ary goal.
func benchAsk(b *testing.B, src, goal string, want bool) {
	b.Helper()
	cp := compile(b, src)
	dom := ref.Domain(cp)
	p, ok := cp.Syms.LookupPred(goal, 0)
	if !ok {
		b.Fatalf("no %s/0", goal)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := topdown.New(cp, dom, topdown.Options{})
		got, err := e.Ask(e.Interner().ID(p, nil), e.EmptyState())
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("%s = %v, want %v", goal, got, want)
		}
	}
}

func BenchmarkE1HypChain(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchAsk(b, workload.ChainProgram(n), "a1", true)
		})
	}
}

func BenchmarkE2OrderLoop(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchAsk(b, workload.OrderLoopProgram(n), "a", true)
		})
	}
}

func BenchmarkE3Parity(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchAsk(b, workload.ParityProgram(n), "even", n%2 == 0)
		})
	}
}

func BenchmarkE4Hamiltonian(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{4, 6, 8, 10} {
		g := workload.PlantedHamiltonian(rng, n, 0.15)
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			benchAsk(b, workload.HamiltonianProgram(g), "yes", true)
		})
		b.Run(fmt.Sprintf("bruteforce/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !workload.HasHamiltonianPath(g) {
					b.Fatal("planted path lost")
				}
			}
		})
	}
}

func BenchmarkE5HamCircuitNo(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{4, 6, 8} {
		g := workload.RandomDigraph(rng, n, 0.2)
		want := !workload.HasHamiltonianPath(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchAsk(b, workload.HamiltonianProgram(g), "no", want)
		})
	}
}

func BenchmarkE6Stratify(b *testing.B) {
	for _, k := range []int{8, 64, 512, 2048} {
		src := workload.KStrataProgram(k, 4)
		prog, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := strat.Stratify(prog)
				if err != nil {
					b.Fatal(err)
				}
				if s.NumStrata != k {
					b.Fatalf("strata = %d", s.NumStrata)
				}
			}
		})
	}
}

func BenchmarkE7TMEncoding(b *testing.B) {
	cases := []struct {
		m    *turing.Machine
		in   string
		want bool
	}{
		{turing.HasOne(), "01", true},
		{turing.GuessOne(), "00", false},
		{turing.CopyThenAskYes(), "01", true},
		{turing.CopyThenAskNo(), "00", true},
	}
	for _, tc := range cases {
		n := 2*len(tc.in) + 6
		src, err := turing.Encode(tc.m, tc.in, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/in=%s", tc.m.Name, tc.in), func(b *testing.B) {
			benchAsk(b, src, "accept", tc.want)
		})
		b.Run(fmt.Sprintf("%s/in=%s/simulator", tc.m.Name, tc.in), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := tc.m.Accepts(tc.in, n)
				if err != nil {
					b.Fatal(err)
				}
				if got != tc.want {
					b.Fatal("simulator disagrees")
				}
			}
		})
	}
}

func BenchmarkE8Cascade(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		src := workload.ParityProgram(n)
		prog, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		st, err := strat.Stratify(prog)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := ast.Compile(prog, symbols.NewTable())
		if err != nil {
			b.Fatal(err)
		}
		dom := ref.Domain(cp)
		p, _ := cp.Syms.LookupPred("even", 0)
		want := n%2 == 0
		b.Run(fmt.Sprintf("uniform/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := topdown.New(cp, dom, topdown.Options{})
				got, err := e.Ask(e.Interner().ID(p, nil), e.EmptyState())
				if err != nil || got != want {
					b.Fatalf("got=%v err=%v", got, err)
				}
			}
		})
		b.Run(fmt.Sprintf("cascade/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := engine.NewCascade(cp, st, dom)
				if err != nil {
					b.Fatal(err)
				}
				got, err := c.Ask(c.Interner().ID(p, nil), c.EmptyState())
				if err != nil || got != want {
					b.Fatalf("got=%v err=%v", got, err)
				}
			}
		})
	}
}

func BenchmarkE9HypOrder(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("el%d", i)
		}
		src := generic.ParityViaOrder("d") + generic.DomainFacts("d", names)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchAsk(b, src, "yes", n%2 == 1)
		})
	}
}

func BenchmarkE10HornBaseline(b *testing.B) {
	linear := "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
	nonlinear := "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), tc(Z, Y).\n"
	for _, n := range []int{32, 128, 512} {
		edges := ""
		for i := 0; i < n; i++ {
			edges += fmt.Sprintf("edge(v%d, v%d).\n", i, i+1)
		}
		for _, v := range []struct {
			name, rules string
		}{{"linear", linear}, {"nonlinear", nonlinear}} {
			if v.name == "nonlinear" && n > 128 {
				// The composed relation has ~n^2/2 tuples with ~n/2
				// fan-out per join key; n=512 is minutes of joins.
				continue
			}
			cp := compile(b, v.rules+edges)
			for _, s := range []struct {
				name     string
				strategy horn.Strategy
			}{{"seminaive", horn.SemiNaive}, {"naive", horn.Naive}} {
				if s.strategy == horn.Naive && n > 128 {
					continue
				}
				b.Run(fmt.Sprintf("%s/%s/n=%d", v.name, s.name, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						e, err := horn.New(cp, s.strategy)
						if err != nil {
							b.Fatal(err)
						}
						e.Compute()
					}
				})
			}
		}
	}
}

func BenchmarkE11Rewrite(b *testing.B) {
	src := "p(a).\nq(X) :- p(X), not r(X)[add: w(X)].\nr(X) :- w(X), blocked.\nqa :- q(a).\n"
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rewrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ast.RewriteNegHyp(prog.Clone())
		}
	})
	rewritten := prog.Clone()
	ast.RewriteNegHyp(rewritten)
	cp, err := ast.Compile(rewritten, symbols.NewTable())
	if err != nil {
		b.Fatal(err)
	}
	dom := ref.Domain(cp)
	p, _ := cp.Syms.LookupPred("qa", 0)
	b.Run("evaluate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := topdown.New(cp, dom, topdown.Options{})
			got, err := e.Ask(e.Interner().ID(p, nil), e.EmptyState())
			if err != nil || !got {
				b.Fatalf("got=%v err=%v", got, err)
			}
		}
	})
}

func BenchmarkE13Deletion(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 32, 64} {
		g := workload.RandomDigraph(rng, n, 2.0/float64(n))
		target := rng.Intn(n)
		want := workload.Reachable(g, 0, target)
		src := workload.TokenGameProgram(g, 0, target)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchAsk(b, src, "goal", want)
		})
	}
}

func BenchmarkE14GenericCompile(b *testing.B) {
	rules, err := generic.CompileGeneric(turing.HasOne(), "d", "p")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 3, 4} {
		facts := ""
		for i := 0; i < n; i++ {
			facts += fmt.Sprintf("d(el%d).\n", i)
		}
		facts += "p(el0).\n"
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchAsk(b, rules+facts, "yes", true)
		})
	}
}

func BenchmarkE15Alternation(b *testing.B) {
	for _, tc := range []struct {
		m    *turing.AMachine
		in   string
		want bool
	}{
		{turing.AllOnesForall(), "11", true},
		{turing.AllOnesForall(), "10", false},
		{turing.HasDoubleOne(), "011", true},
	} {
		rules, err := turing.EncodeAlternating(tc.m)
		if err != nil {
			b.Fatal(err)
		}
		db, err := turing.EncodeAlternatingDB(tc.m, tc.in, 2*len(tc.in)+6)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/in=%s", tc.m.Name, tc.in), func(b *testing.B) {
			benchAsk(b, rules+db, "accept", tc.want)
		})
	}
}

func BenchmarkE12Ablation(b *testing.B) {
	// Untabled parity is factorial in |A|: n=7 keeps the ablation honest
	// (7! search paths) without multi-minute runs.
	const parityN = 7
	src := workload.ParityProgram(parityN)
	cp := compile(b, src)
	dom := ref.Domain(cp)
	p, _ := cp.Syms.LookupPred("even", 0)
	want := parityN%2 == 0
	configs := []struct {
		name string
		opts topdown.Options
	}{
		{"full", topdown.Options{}},
		{"notabling", topdown.Options{NoTabling: true, MaxGoals: 100_000_000}},
		{"noplanner", topdown.Options{NoPlanner: true, MaxGoals: 100_000_000}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := topdown.New(cp, dom, cfg.opts)
				got, err := e.Ask(e.Interner().ID(p, nil), e.EmptyState())
				if err != nil || got != want {
					b.Fatalf("got=%v err=%v", got, err)
				}
			}
		})
	}
}

// BenchmarkColdSearch runs the search ops of perfbench's cold-eval
// workload: the Hamiltonian path programs (paper Examples 7-8) over a
// planted-yes and a random-no 12-node digraph, twice each, and parity
// (paper Example 6) at 16 and 9 items, each on a fresh ModeAuto engine.
// The digraphs are drawn from shape seed 1, as perfbench draws them. It
// reports goal expansions per set next to allocations, so a profile of
// the exponential Σ search is one command away:
//
//	go test -run '^$' -bench ColdSearch -cpuprofile cpu.out .
func BenchmarkColdSearch(b *testing.B) {
	type op struct {
		prog  *hypo.Program
		query string
		want  bool
	}
	shape := rand.New(rand.NewSource(1))
	var ham []op
	for _, d := range []workload.Digraph{workload.PlantedHamiltonian(shape, 12, 0.15), workload.RandomDigraph(shape, 12, 0.2)} {
		p, err := hypo.Parse(workload.HamiltonianProgram(d))
		if err != nil {
			b.Fatal(err)
		}
		ham = append(ham, op{p, "yes", workload.HasHamiltonianPath(d)})
	}
	var ops []op
	for _, n := range []int{16, 9} {
		p, err := hypo.Parse(workload.ParityProgram(n))
		if err != nil {
			b.Fatal(err)
		}
		ops = append(ops, ham...)
		ops = append(ops, op{p, "even", n%2 == 0})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var goals int64
	for i := 0; i < b.N; i++ {
		for _, o := range ops {
			e, err := hypo.New(o.prog, hypo.Options{Mode: hypo.ModeAuto})
			if err != nil {
				b.Fatal(err)
			}
			got, err := e.Ask(o.query)
			if err != nil || got != o.want {
				b.Fatalf("%s = %v (err %v), want %v", o.query, got, err, o.want)
			}
			goals += e.Stats().Goals
		}
	}
	b.ReportMetric(float64(goals)/float64(b.N), "goals/op")
}
