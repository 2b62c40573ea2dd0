// Package horn is a plain Datalog engine: bottom-up evaluation of
// function-free Horn rules with stratified negation, with both naive and
// semi-naive fixpoint strategies.
//
// It exists as the baseline for the paper's framing claims: linear
// recursion and stratified negation do not change the data-complexity of
// Horn rulebases (both stay in P, section 1), in contrast to hypothetical
// rulebases where they generate the polynomial-time hierarchy. It rejects
// hypothetical premises — those need the hypo engines.
//
// Evaluation is the bottomup fixpoint kernel over the whole program as a
// single Δ part, run without an oracle.
package horn

import (
	"fmt"
	"sort"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/bottomup"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/ref"
)

// Strategy selects the fixpoint algorithm.
type Strategy int

const (
	// SemiNaive re-joins only against atoms derived in the previous round.
	SemiNaive Strategy = iota
	// Naive re-joins against the full relation every round.
	Naive
)

// Stats counts evaluation work: fixpoint rounds across all strata, rule
// body matches that produced a (possibly old) head, candidate atoms
// inspected during matching, and atoms in the computed model (excluding
// base facts).
type Stats = bottomup.Stats

// Engine evaluates a Horn program bottom-up and answers membership in its
// perfect model.
type Engine struct {
	in    *facts.Interner
	base  *facts.DB
	p     *bottomup.Prover
	model map[facts.AtomID]struct{} // nil until computed
}

// New builds an engine over a compiled program. It returns an error if the
// program contains hypothetical premises or recursion through negation.
func New(cp *ast.CProgram, strategy Strategy) (*Engine, error) {
	for _, r := range cp.Rules {
		for _, pr := range r.Body {
			if pr.Kind == ast.Hyp || pr.Kind == ast.NegHyp {
				return nil, fmt.Errorf("horn: rule at line %d has a hypothetical premise; use the hypo engines", r.Line)
			}
		}
		// Range restriction: every head variable must occur in a positive
		// body premise, so bottom-up evaluation grounds heads fully.
		inBody := make([]bool, r.NumVars)
		for _, pr := range r.Body {
			if pr.Kind != ast.Plain {
				continue
			}
			for _, t := range pr.Atom.Args {
				if t.IsVar() {
					inBody[t.VarSlot()] = true
				}
			}
		}
		for _, t := range r.Head.Args {
			if t.IsVar() && !inBody[t.VarSlot()] {
				return nil, fmt.Errorf("horn: rule at line %d is not range-restricted (head variable %s)",
					r.Line, r.VarNames[t.VarSlot()])
			}
		}
	}
	in := facts.NewInterner(cp.Syms)
	base := facts.NewDB(in)
	for _, f := range cp.Facts {
		if _, err := base.Insert(in.InternGround(f)); err != nil {
			return nil, err
		}
	}
	rules := make([]int, len(cp.Rules))
	for i := range rules {
		rules[i] = i
	}
	// Negation-local variables range over the domain.
	p, err := bottomup.New(cp, base, ref.Domain(cp), rules, nil)
	if err != nil {
		return nil, fmt.Errorf("horn: %w", err)
	}
	p.SetNaive(strategy == Naive)
	return &Engine{in: in, base: base, p: p}, nil
}

// Interner returns the engine's ground-atom interner.
func (e *Engine) Interner() *facts.Interner { return e.in }

// Stats returns the evaluation counters (valid after the model has been
// computed by a query or by Compute).
func (e *Engine) Stats() Stats { return e.p.Stats() }

// Compute materialises the perfect model.
func (e *Engine) Compute() {
	if e.model != nil {
		return
	}
	m, err := e.p.Materialise(facts.NewState(e.base))
	if err != nil {
		// Every predicate is defined in the one Δ part and no context or
		// memory budget is installed, so nothing can fail but a bug.
		panic(fmt.Sprintf("horn: %v", err))
	}
	e.model = m
}

// Holds reports whether an interned atom is in the perfect model.
func (e *Engine) Holds(goal facts.AtomID) bool {
	e.Compute()
	if e.base.Has(goal) {
		return true
	}
	_, ok := e.model[goal]
	return ok
}

// Model returns the derived atoms, sorted. Base facts are not included.
func (e *Engine) Model() []facts.AtomID {
	e.Compute()
	out := make([]facts.AtomID, 0, len(e.model))
	for id := range e.model {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
