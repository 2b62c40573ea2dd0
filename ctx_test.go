package hypo

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hypodatalog/internal/topdown"
	"hypodatalog/internal/workload"
)

var hardHamiltonianCache *workload.Digraph

// hardHamiltonian builds a 12-node digraph with no Hamiltonian path but a
// huge search space: a complete 11-node core plus one isolated node (v11)
// that no path can ever reach. Proving "yes" false must exhaust the
// core's near-factorial path orderings. The no-path property holds by
// construction, so the check below is structural — running the
// brute-force HasHamiltonianPath here would itself take factorial time.
func hardHamiltonian(t *testing.T) workload.Digraph {
	t.Helper()
	if hardHamiltonianCache != nil {
		return *hardHamiltonianCache
	}
	g := workload.Digraph{N: 12}
	for i := 0; i < 11; i++ {
		for j := 0; j < 11; j++ {
			if i != j {
				g.Edges = append(g.Edges, [2]int{i, j})
			}
		}
	}
	for _, e := range g.Edges {
		if e[0] == 11 || e[1] == 11 {
			t.Fatal("construction broken: v11 must be isolated")
		}
	}
	hardHamiltonianCache = &g
	return g
}

// TestDeadlineHamiltonian is the acceptance test for context propagation:
// an intractable query under a 50ms deadline must return ErrDeadline well
// under 500ms, in both evaluation modes, with a non-zero work snapshot.
func TestDeadlineHamiltonian(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	for _, mode := range []Mode{ModeUniform, ModeCascade} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			e := mustEngine(t, src, Options{Mode: mode})
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := e.AskCtx(ctx, "yes")
			elapsed := time.Since(start)
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("AskCtx = %v, want ErrDeadline", err)
			}
			if elapsed >= 500*time.Millisecond {
				t.Errorf("abort took %v, want well under 500ms", elapsed)
			}
			var ae *AbortError
			if !errors.As(err, &ae) {
				t.Fatalf("error %v is not an *AbortError", err)
			}
			if ae.Stats == (topdown.Stats{}) {
				t.Error("AbortError carries a zero stats snapshot")
			}
		})
	}
}

// TestCancelPropagation covers plain cancellation (not a deadline) and
// checks the engine survives an abort: the same engine must still answer
// correctly afterwards.
func TestCancelPropagation(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	e := mustEngine(t, src, Options{Mode: ModeUniform})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := e.AskCtx(ctx, "yes"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("AskCtx = %v, want ErrCanceled", err)
	}

	// Pre-canceled contexts abort before any expansion.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := e.AskCtx(pre, "yes"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled AskCtx = %v, want ErrCanceled", err)
	}

	// The abort must not wedge the engine.
	got, err := e.Ask("node(v0)")
	if err != nil || !got {
		t.Fatalf("Ask after abort = %v, %v; want true, nil", got, err)
	}
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// poll on, so an abort lands at a deterministic point of evaluation.
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

// TestCancelColdMaterialisation: cancellation stops a large cold cascade
// materialisation inside a semi-naive round — the seed pass of chainSrc's
// right-linear closure derives O(n) of its ~n²/2 atoms within a couple
// of polls, while the whole run polls hundreds of times — and the partial
// model is not cached: the same engine then answers in full.
func TestCancelColdMaterialisation(t *testing.T) {
	const n = 200
	e := mustEngine(t, chainSrc(n), Options{Mode: ModeCascade})
	goal := fmt.Sprintf("reach(n0, n%d)", n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := e.AskCtx(&cancelAfter{Context: ctx, n: 16}, goal); !errors.Is(err, ErrCanceled) {
		t.Fatalf("AskCtx = %v, want ErrCanceled", err)
	}
	if ok, err := e.Ask(goal); err != nil || !ok {
		t.Fatalf("Ask(%s) after the abort = %v, %v; want true", goal, ok, err)
	}
	if bs, err := e.Query("reach(n0, Y)"); err != nil || len(bs) != n {
		t.Fatalf("reach(n0, Y) after the abort = %d answers, %v; want %d", len(bs), err, n)
	}
	if ok, err := e.Ask("reach(n1, n0)"); err != nil || ok {
		t.Fatalf("Ask(reach(n1, n0)) after the abort = %v, %v; want false", ok, err)
	}
}

// TestQueryCtxDeadline drives the deadline through the solution
// enumerator (QueryCtx) rather than a single ground ask.
func TestQueryCtxDeadline(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	e := mustEngine(t, src, Options{Mode: ModeUniform})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := e.QueryCtx(ctx, "yes"); !errors.Is(err, ErrDeadline) {
		t.Fatalf("QueryCtx = %v, want ErrDeadline", err)
	}
}

// TestAskUnderCtx checks the context path through AskUnder and that the
// hypothetical extension still works under the *Ctx spelling.
func TestAskUnderCtx(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{})
	ok, err := e.AskUnderCtx(context.Background(), "grad(mary)", "take(mary, eng201)")
	if err != nil || !ok {
		t.Fatalf("AskUnderCtx = %v, %v; want true, nil", ok, err)
	}
}

// TestBudgetAbortError checks that MaxGoals exhaustion surfaces through
// the public API as ErrBudget with the configured limit and exact count.
func TestBudgetAbortError(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	e := mustEngine(t, src, Options{Mode: ModeUniform, MaxGoals: 100})
	_, err := e.Ask("yes")
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Ask = %v, want ErrBudget", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an *AbortError", err)
	}
	if ae.Limit != 100 {
		t.Errorf("AbortError.Limit = %d, want 100", ae.Limit)
	}
	if ae.Stats.Goals != 100 {
		t.Errorf("aborted after %d expansions, want exactly 100", ae.Stats.Goals)
	}
}

// TestDomainCheckDoesNotIntern checks the compile-order fix: a rejected
// out-of-domain query constant must not leak into the shared symbol
// table.
func TestDomainCheckDoesNotIntern(t *testing.T) {
	e := mustEngine(t, uniSrc, Options{})
	if _, err := e.Ask("grad(nosuchperson)"); err == nil {
		t.Fatal("out-of-domain constant accepted")
	}
	if _, ok := e.prog.syms.LookupConst("nosuchperson"); ok {
		t.Error("rejected query constant was interned into the symbol table")
	}
	if _, err := e.AskUnder("grad(tony)", "take(ghost, his101)"); err == nil {
		t.Fatal("out-of-domain added atom accepted")
	}
	if _, ok := e.prog.syms.LookupConst("ghost"); ok {
		t.Error("rejected added-atom constant was interned into the symbol table")
	}
}
