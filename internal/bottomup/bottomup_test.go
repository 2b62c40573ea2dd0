package bottomup

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/parser"
	"hypodatalog/internal/ref"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// build compiles a source program and creates a prover over ALL its rules
// (a single Δ part), with an optional oracle.
func build(t *testing.T, src string, oracle Oracle) (*Prover, *ast.CProgram, *facts.DB) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	in := facts.NewInterner(cp.Syms)
	base := facts.NewDB(in)
	for _, f := range cp.Facts {
		base.Insert(in.InternGround(f))
	}
	rules := make([]int, len(cp.Rules))
	for i := range rules {
		rules[i] = i
	}
	p, err := New(cp, base, ref.Domain(cp), rules, oracle)
	if err != nil {
		t.Fatal(err)
	}
	return p, cp, base
}

func holds(t *testing.T, p *Prover, cp *ast.CProgram, base *facts.DB, atom string) bool {
	t.Helper()
	a, err := parser.ParseAtom(atom)
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := cp.Syms.LookupPred(a.Pred, a.Arity())
	if !ok {
		return false
	}
	args := make([]symbols.Const, a.Arity())
	for i, tm := range a.Args {
		c, ok := cp.Syms.LookupConst(tm.Name)
		if !ok {
			return false
		}
		args[i] = c
	}
	got, err := p.Holds(base.Interner().ID(pr, args), facts.NewState(base))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestHornFixpoint(t *testing.T) {
	p, cp, base := build(t, `
		edge(a, b). edge(b, c).
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`, nil)
	if !holds(t, p, cp, base, "tc(a, c)") {
		t.Error("tc(a,c) false")
	}
	if holds(t, p, cp, base, "tc(c, a)") {
		t.Error("tc(c,a) true")
	}
}

func TestStratifiedNegationLevels(t *testing.T) {
	p, cp, base := build(t, `
		node(a). node(b).
		edge(a, b).
		reach(a).
		reach(Y) :- reach(X), edge(X, Y).
		unreach(X) :- node(X), not reach(X).
		lonely :- not reach(X).
	`, nil)
	if holds(t, p, cp, base, "unreach(a)") || holds(t, p, cp, base, "unreach(b)") {
		t.Error("unreach wrong")
	}
	if holds(t, p, cp, base, "lonely") {
		t.Error("lonely should fail (reach is non-empty)")
	}
	if len(p.levels) < 2 {
		t.Errorf("negation levels = %d, want >= 2", len(p.levels))
	}
}

func TestRecursionThroughNegationRejected(t *testing.T) {
	prog, err := parser.Parse("a :- not b.\nb :- not a.\n")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	in := facts.NewInterner(cp.Syms)
	base := facts.NewDB(in)
	if _, err := New(cp, base, nil, []int{0, 1}, nil); err == nil {
		t.Error("expected rejection")
	}
}

func TestOracleCalls(t *testing.T) {
	// q is "defined below" (not in the Δ part's rule set); the oracle
	// answers it, also under hypothetical additions.
	src := `
		p(a).
		r(X) :- p(X), q(X).
		w(X) :- s(X)[add: h(X)].
	`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	// Mark q and s as intensional (they would be defined in lower strata).
	qPred := cp.Syms.Pred("q", 1)
	sPred := cp.Syms.Pred("s", 1)
	hPred := cp.Syms.Pred("h", 1)
	cp.IDB[qPred] = true
	cp.IDB[sPred] = true
	in := facts.NewInterner(cp.Syms)
	base := facts.NewDB(in)
	for _, f := range cp.Facts {
		base.Insert(in.InternGround(f))
	}
	oracleCalls := 0
	oracle := func(goal facts.AtomID, st facts.State) (bool, error) {
		oracleCalls++
		switch in.Pred(goal) {
		case qPred:
			return true, nil
		case sPred:
			// s(X) holds iff h(X) was hypothetically added.
			h := in.ID(hPred, in.Args(goal))
			return st.Has(h), nil
		}
		return false, nil
	}
	p, err := New(cp, base, ref.Domain(cp), []int{0, 1}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !holds(t, p, cp, base, "r(a)") {
		t.Error("r(a) false")
	}
	if !holds(t, p, cp, base, "w(a)") {
		t.Error("w(a) false: hypothetical oracle call failed")
	}
	if oracleCalls == 0 {
		t.Error("oracle never called")
	}
}

func TestMissingOracleIsError(t *testing.T) {
	prog, err := parser.Parse("r(X) :- p(X), q(X).\np(a).")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ast.Compile(prog, symbols.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	cp.IDB[cp.Syms.Pred("q", 1)] = true // q intensional, no oracle
	in := facts.NewInterner(cp.Syms)
	base := facts.NewDB(in)
	for _, f := range cp.Facts {
		base.Insert(in.InternGround(f))
	}
	p, err := New(cp, base, ref.Domain(cp), []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rPred, _ := cp.Syms.LookupPred("r", 1)
	aConst, _ := cp.Syms.LookupConst("a")
	_, err = p.Holds(in.ID(rPred, []symbols.Const{aConst}), facts.NewState(base))
	if err == nil {
		t.Error("expected missing-oracle error")
	}
}

func TestMaterialisationCachePerState(t *testing.T) {
	p, cp, base := build(t, "q(X) :- w(X).\n", nil)
	wPred := cp.Syms.Pred("w", 1)
	aConst := cp.Syms.Const("a")
	in := base.Interner()
	st := facts.NewState(base)
	ext := st.Add(in.ID(wPred, []symbols.Const{aConst}))

	qPred, _ := cp.Syms.LookupPred("q", 1)
	qa := in.ID(qPred, []symbols.Const{aConst})
	got1, err := p.Holds(qa, st)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := p.Holds(qa, ext)
	if err != nil {
		t.Fatal(err)
	}
	if got1 || !got2 {
		t.Errorf("state separation wrong: base=%v ext=%v", got1, got2)
	}
	if len(p.cache) != 2 {
		t.Errorf("cache entries = %d, want 2", len(p.cache))
	}
}

func TestNegationLocalVarInDelta(t *testing.T) {
	p, cp, base := build(t, "empty :- not q(X).\nd(a).\n", nil)
	if !holds(t, p, cp, base, "empty") {
		t.Error("empty should hold with no q facts")
	}
	p2, cp2, base2 := build(t, "empty :- not q(X).\nq(a).\n", nil)
	if holds(t, p2, cp2, base2, "empty") {
		t.Error("empty should fail when q(a) exists")
	}
}

// naiveTwin builds a second prover over the same program and base whose
// every level runs the naive loop.
func naiveTwin(t *testing.T, p *Prover) *Prover {
	t.Helper()
	rules := make([]int, len(p.prog.Rules))
	for i := range rules {
		rules[i] = i
	}
	q, err := New(p.prog, p.base, p.dom, rules, p.oracle)
	if err != nil {
		t.Fatal(err)
	}
	q.SetNaive(true)
	return q
}

// render lists a model's atoms in canonical order.
func render(t *testing.T, p *Prover, st facts.State) []string {
	t.Helper()
	m, err := p.Materialise(st)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for id := range m {
		out = append(out, p.in.Format(id))
	}
	sort.Strings(out)
	return out
}

// TestSemiNaiveMatchesNaive compares the semi-naive kernel with the
// naive loop on random graphs. The program has three negation levels,
// recursion in the first two (linear and non-linear), a
// negation-local variable, and a head variable with no body occurrence
// that Definition 3 ranges over the domain.
func TestSemiNaiveMatchesNaive(t *testing.T) {
	const rules = `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), tc(Z, Y).
		rt(X, Y) :- edge(X, Y).
		rt(X, Y) :- edge(X, Z), rt(Z, Y).
		sym(X, Y) :- tc(X, Y), tc(Y, X).
		island(X) :- node(X), not tc(X, Y).
		far(X, Y) :- node(X), node(Y), not rt(X, Y).
		farc(X, Y) :- far(X, Y).
		farc(X, Y) :- farc(X, Z), far(Z, Y).
		tag(X, Y) :- island(X).
		lone(X) :- node(X), not farc(X, X), not sym(X, X).
	`
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		var b strings.Builder
		b.WriteString(rules)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "node(v%d).\n", i)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.25 {
					fmt.Fprintf(&b, "edge(v%d, v%d).\n", i, j)
				}
			}
		}
		p, _, base := build(t, b.String(), nil)
		if len(p.levels) != 3 {
			t.Fatalf("seed %d: %d negation levels, want 3", seed, len(p.levels))
		}
		for i, lv := range p.levels {
			if lv.naive {
				t.Fatalf("seed %d: level %d fell back to naive", seed, i)
			}
		}
		st := facts.NewState(base)
		got, want := render(t, p, st), render(t, naiveTwin(t, p), st)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("seed %d: semi-naive model differs from naive\nsemi-naive: %v\nnaive:      %v", seed, got, want)
		}
	}
}

// TestNaiveFallbackLevel: a hypothetical premise on an owned predicate
// whose additions are already in the state reads the growing model, so
// no semi-naive round could pin it; its level must run the naive loop,
// and hr must come out equal to the plain closure rt.
func TestNaiveFallbackLevel(t *testing.T) {
	src := `
		hr(X, Y) :- edge(X, Y).
		hr(X, Y) :- edge(X, Z), hr(Z, Y)[add: node(Z)].
		rt(X, Y) :- edge(X, Y).
		rt(X, Y) :- edge(X, Z), rt(Z, Y).
	`
	for i := 0; i < 6; i++ {
		src += fmt.Sprintf("node(v%d).\nedge(v%d, v%d).\n", i, i, (i+1)%6)
	}
	p, _, base := build(t, src, nil)
	if len(p.levels) != 1 || !p.levels[0].naive {
		t.Fatalf("levels = %+v, want one naive level", p.levels)
	}
	var hr, rt []string
	for _, a := range render(t, p, facts.NewState(base)) {
		if rest, ok := strings.CutPrefix(a, "hr"); ok {
			hr = append(hr, rest)
		} else if rest, ok := strings.CutPrefix(a, "rt"); ok {
			rt = append(rt, rest)
		}
	}
	if len(rt) != 6*6 || strings.Join(hr, " ") != strings.Join(rt, " ") {
		t.Errorf("hr = %v\nrt = %v", hr, rt)
	}
}

// chainProver builds a prover over a right-linear closure of the chain
// v0 -> ... -> v{n-1}. Its seed pass derives O(n) atoms; the other
// n(n-1)/2 - O(n) come from semi-naive rounds.
func chainProver(t *testing.T, n int) (*Prover, facts.State) {
	t.Helper()
	var b strings.Builder
	b.WriteString("reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "edge(v%d, v%d).\n", i, i+1)
	}
	p, _, base := build(t, b.String(), nil)
	return p, facts.NewState(base)
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// poll on, so an abort lands at a deterministic point of evaluation. The
// embedded context must have a Done channel, or the prover never polls.
type cancelAfter struct {
	context.Context
	polls, n int
}

func (c *cancelAfter) Err() error {
	c.polls++
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestAbortInsideSemiNaiveRound: a cancelled context and an exhausted
// memory budget each stop a cold materialisation inside a semi-naive
// round, release every charge the partial model and its index made,
// cache nothing, and leave the prover able to materialise in full.
func TestAbortInsideSemiNaiveRound(t *testing.T) {
	const n = 200
	for _, tc := range []struct {
		name string
		max  int64
		ctx  func() context.Context
		want error
	}{
		{"cancel", 0, func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			return &cancelAfter{Context: ctx, n: 8}
		}, topdown.ErrCanceled},
		{"memory", 64 << 10, context.Background, topdown.ErrMemory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, st := chainProver(t, n)
			mem := topdown.NewMemTracker(tc.max)
			p.SetMem(mem)
			mem.Begin()
			_, err := p.HoldsCtx(tc.ctx(), p.in.ID(p.prog.Rules[0].Head.Pred, []symbols.Const{0, 1}), st)
			if !errors.Is(err, tc.want) {
				t.Fatalf("HoldsCtx = %v, want %v", err, tc.want)
			}
			if r := p.Stats().Rounds; r < 2 {
				t.Errorf("aborted in round %d, want a semi-naive round (>= 2)", r)
			}
			if len(p.cache) != 0 {
				t.Errorf("aborted materialisation cached %d entries", len(p.cache))
			}
			if used := mem.Current(); used != 0 {
				t.Errorf("%d bytes still charged after the abort", used)
			}
			p.SetMem(nil)
			if got := render(t, p, st); len(got) != n*(n-1)/2 {
				t.Errorf("materialisation after abort has %d atoms, want %d", len(got), n*(n-1)/2)
			}
		})
	}
}
