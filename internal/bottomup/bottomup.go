// Package bottomup implements the paper's PROVE_Δi procedure (section
// 5.2.2): bottom-up materialisation of a Δ part — a set of Horn rules with
// stratified negation, possibly containing hypothetical premises whose
// predicates are defined in lower strata.
//
// Following the paper, the Δ rules are sub-partitioned into negation
// strata Δ_i1, ..., Δ_im; LFP applies each sub-stratum's rules to a
// fixpoint in order, building the perfect model of Δ_i and the state.
// One kernel computes every fixpoint — cold LFP, and the incremental
// catch-up of incremental.go: semi-naive rounds that join each rule with
// one premise pinned to an atom the previous round derived, probing the
// model through a per-(predicate, argument, value) index.
// TEST⁰ routes hypothetical premises and lower-strata predicates to an
// oracle (PROVE_Σ(i-1) in the cascade). Materialisations are cached per
// hypothetical state.
package bottomup

import (
	"context"
	"fmt"
	"slices"

	"hypodatalog/internal/ast"
	"hypodatalog/internal/facts"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/symbols"
	"hypodatalog/internal/topdown"
)

// Oracle answers goals whose predicates are defined below this Δ part —
// in the cascade, PROVE_Σ(i-1).Ask. The state passed may extend the
// current one with hypothetical additions.
type Oracle func(goal facts.AtomID, st facts.State) (bool, error)

// Prover materialises the perfect model of one Δ part per state.
// A Prover is not safe for concurrent use.
type Prover struct {
	prog   *ast.CProgram // full program (for rule storage and symbols)
	in     *facts.Interner
	base   *facts.DB
	dom    []symbols.Const
	oracle Oracle

	all      []*rulePlan           // the rules forming this Δ part
	own      map[symbols.Pred]bool // predicates defined by those rules
	levels   []level               // rules grouped by negation sub-stratum
	naive    bool                  // every level runs the naive loop (SetNaive)
	cache    map[string]*matEntry  // state key -> materialised model
	maxCache int
	stats    Stats

	// frames is the stack rule bindings live on: a join pushes a frame
	// per rule and truncates back after it. spare holds emptied frontier
	// maps for pinnedJoin to reuse. Both are stacks because a join can
	// re-enter Materialise (askOracleOrModel).
	frames []symbols.Const
	spare  []map[symbols.Pred][]facts.AtomID

	// ctx is the cancellation source of the in-flight *Ctx call, or nil
	// when the call is not cancellable; the join loop polls it every
	// ctxCheckInterval steps and the fixpoint loop once per round.
	ctx   context.Context
	steps int64

	// mem is the shared footprint tracker of the enclosing cascade (via
	// SetMem); nil disables accounting and the budget. Derived atoms,
	// cached materialisations and live model indexes are charged into it
	// as they grow, and the join loop polls it at the same points as the
	// context.
	mem *topdown.MemTracker
}

// Stats counts a prover's evaluation work since it was built.
type Stats struct {
	Rounds     int64 // fixpoint rounds: full passes and semi-naive rounds
	RuleFires  int64 // rule body matches that produced a (possibly old) head
	JoinProbes int64 // candidate atoms inspected while matching premises
	Derived    int64 // atoms added to models
}

// Stats returns the work counters.
func (p *Prover) Stats() Stats { return p.stats }

// rulePlan is one rule of the Δ part with its premise orders, fixed at New.
type rulePlan struct {
	r     *ast.CRule
	order []int // premiseOrder
	// pinned[bi] is order without premise bi when premise bi is pinnable
	// (a semi-naive round binds it to a frontier atom), else nil.
	pinned [][]int
}

// level is one negation sub-stratum. Semi-naive evaluation is sound for
// it when the only premises that change while it runs are plain premises
// on owned predicates; a hypothetical premise on an owned predicate reads
// the growing model (askOracleOrModel), so such a level is naive.
type level struct {
	rules []*rulePlan
	naive bool
}

// ctxCheckInterval is how many join steps pass between context polls.
const ctxCheckInterval = 1024

// matAtomBytes approximates the heap cost of one derived atom in a
// materialised model; matEntryOverhead the fixed cost of one cache entry
// beyond its atoms (key string, map slot, matEntry struct). A model
// index costs postingBytes per posting-list entry (an AtomID plus
// append slack) and listBytes per list (map slot, key, slice header).
const (
	matAtomBytes     = 16
	matEntryOverhead = 96
	postingBytes     = 6
	listBytes        = 48
)

// SetMem installs the cascade's shared footprint tracker.
func (p *Prover) SetMem(t *topdown.MemTracker) { p.mem = t }

// SetNaive makes every level run the naive fixpoint loop, re-applying all
// its rules until none derives a new atom (the E10 ablation baseline).
func (p *Prover) SetNaive(on bool) { p.naive = on }

type atomSet map[facts.AtomID]struct{}

func (s atomSet) has(id facts.AtomID) bool { _, ok := s[id]; return ok }

// model is a materialised atom set under evaluation with an index of
// posting lists per (predicate, argument position, value), the shape of
// facts.DB's indexes. A position is indexed once it has been probed
// scansBeforeIndex times, so only the positions the rules' joins bind
// cost memory, and a small incremental update that probes a position
// once or twice scans the model instead of paying for an index. The
// index lives for one Materialise, PlanDelta or ApplyPlan call and is
// charged to the tracker until release; the cache keeps only the atom
// set.
type model struct {
	atoms atomSet
	lists map[listKey][]facts.AtomID
	built map[symbols.Pred][]int // indexed positions per predicate
	scans map[listKey]int        // unindexed probes per (pred, pos), val 0
	bytes int64
}

// listKey names a posting list; position -1 (with value 0) lists every
// atom of the predicate.
type listKey struct {
	pred symbols.Pred
	pos  int
	val  symbols.Const
}

// scansBeforeIndex is how many probes of a (predicate, position) scan
// the whole model before the position is indexed. A scan costs one pass
// over the atom set; building the position's lists costs a sort of the
// predicate's atoms, about as much as a few scans.
const scansBeforeIndex = 4

// newModel wraps an atom set; the index maps are made on first probe,
// so a model no join probes costs no index.
func newModel(atoms atomSet) *model { return &model{atoms: atoms} }

// postings returns the model's atoms of pred whose argument pos is val
// (every atom of pred when pos is -1): the atoms present when the
// position was indexed in ID order, then later insertions in insertion
// order, so the order never depends on map iteration.
func (p *Prover) postings(m *model, pred symbols.Pred, pos int, val symbols.Const) []facts.AtomID {
	if !contains(m.built[pred], pos) {
		k := listKey{pred: pred, pos: pos}
		if m.scans == nil {
			m.scans = make(map[listKey]int)
			m.lists = make(map[listKey][]facts.AtomID)
			m.built = make(map[symbols.Pred][]int)
		}
		if m.scans[k] < scansBeforeIndex {
			m.scans[k]++
			var ids []facts.AtomID
			for id := range m.atoms {
				if p.in.Pred(id) == pred && (pos < 0 || p.in.Args(id)[pos] == val) {
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
			return ids
		}
		m.built[pred] = append(m.built[pred], pos)
		p.indexPosition(m, pred, pos)
	}
	return m.lists[listKey{pred, pos, val}]
}

// indexPosition builds every posting list of one (predicate, position)
// from the model's atoms, sorted by (value, ID) so that the join order —
// and with it the work counters — does not depend on map order. Each
// list is a capped window of one shared array.
func (p *Prover) indexPosition(m *model, pred symbols.Pred, pos int) {
	before := m.bytes
	var keys []uint64
	for id := range m.atoms {
		if p.in.Pred(id) != pred {
			continue
		}
		var v symbols.Const
		if pos >= 0 {
			v = p.in.Args(id)[pos]
		}
		keys = append(keys, uint64(uint32(v))<<32|uint64(uint32(id)))
	}
	slices.Sort(keys)
	ids := make([]facts.AtomID, len(keys))
	for i, k := range keys {
		ids[i] = facts.AtomID(uint32(k))
	}
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j]>>32 == keys[i]>>32 {
			j++
		}
		m.lists[listKey{pred, pos, symbols.Const(uint32(keys[i] >> 32))}] = ids[i:j:j]
		m.bytes += listBytes + postingBytes*int64(j-i)
		i = j
	}
	p.mem.Add(m.bytes - before)
}

// post appends an atom to its posting list for one indexed position.
func (p *Prover) post(m *model, id facts.AtomID, pos int) {
	k := listKey{pred: p.in.Pred(id), pos: pos}
	if pos >= 0 {
		k.val = p.in.Args(id)[pos]
	}
	l := m.lists[k]
	n := int64(postingBytes)
	if len(l) == 0 {
		n += listBytes
	}
	m.lists[k] = append(l, id)
	m.bytes += n
	p.mem.Add(n)
}

// release returns the index's charges; the atom set lives on.
func (p *Prover) release(m *model) {
	p.mem.Add(-m.bytes)
	m.bytes = 0
}

// insert adds a derived atom to the model unless the state or the model
// already holds it, reporting whether it did.
func (p *Prover) insert(m *model, st facts.State, h facts.AtomID) bool {
	if m.atoms.has(h) || st.Has(h) {
		return false
	}
	m.atoms[h] = struct{}{}
	p.mem.Add(matAtomBytes)
	p.stats.Derived++
	for _, pos := range m.built[p.in.Pred(h)] {
		p.post(m, h, pos)
	}
	return true
}

// matEntry is one cached materialisation: the perfect model of the Δ part
// over the state with the given hypothetical delta. The delta is kept so
// incremental maintenance (incremental.go) can reconstruct the state a
// cached model belongs to and update it in place on a base-fact commit.
type matEntry struct {
	delta facts.Delta
	atoms atomSet
}

// New builds a Δ prover over a subset of the program's rules. oracle may
// be nil when the Δ part is self-contained (stratum 1 with no
// hypothetical premises); it is then an error for evaluation to need it.
func New(cp *ast.CProgram, base *facts.DB, dom []symbols.Const, rules []int, oracle Oracle) (*Prover, error) {
	p := &Prover{
		prog:     cp,
		in:       base.Interner(),
		base:     base,
		dom:      dom,
		oracle:   oracle,
		own:      make(map[symbols.Pred]bool),
		cache:    make(map[string]*matEntry),
		maxCache: 1 << 16,
	}
	for _, ri := range rules {
		p.own[cp.Rules[ri].Head.Pred] = true
	}
	for _, ri := range rules {
		r := &cp.Rules[ri]
		rp := &rulePlan{r: r, order: p.premiseOrder(r), pinned: make([][]int, len(r.Body))}
		for bi := range r.Body {
			if !p.pinnable(&r.Body[bi]) {
				continue
			}
			rp.pinned[bi] = make([]int, 0, len(rp.order)-1)
			for _, i := range rp.order {
				if i != bi {
					rp.pinned[bi] = append(rp.pinned[bi], i)
				}
			}
		}
		p.all = append(p.all, rp)
	}
	lv, err := p.negationLevels()
	if err != nil {
		return nil, err
	}
	p.levels = lv
	return p, nil
}

// negationLevels sub-partitions the Δ rules so that within each level,
// negation refers only to lower levels (the Δ_i1..Δ_im of the paper).
// It fails if the part has recursion through negation.
func (p *Prover) negationLevels() ([]level, error) {
	lvl := map[symbols.Pred]int{}
	for q := range p.own {
		lvl[q] = 1
	}
	n := len(p.own)
	// Relax: level(head) >= level(pos premise); > level(negated premise).
	for pass := 0; ; pass++ {
		if pass > 2*n+2 {
			return nil, fmt.Errorf("bottomup: recursion through negation in Δ part")
		}
		changed := false
		for _, rp := range p.all {
			h := rp.r.Head.Pred
			for _, pr := range rp.r.Body {
				q := pr.Atom.Pred
				if !p.own[q] {
					continue
				}
				switch pr.Kind {
				case ast.Plain:
					if lvl[h] < lvl[q] {
						lvl[h] = lvl[q]
						changed = true
					}
				case ast.Negated:
					if lvl[h] <= lvl[q] {
						lvl[h] = lvl[q] + 1
						changed = true
					}
				case ast.Hyp:
					// H-stratification places hypothetical premises of a Δ
					// part strictly below it, so q should not be owned;
					// treat an owned one like a positive dependency.
					if lvl[h] < lvl[q] {
						lvl[h] = lvl[q]
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	maxLvl := 1
	for _, l := range lvl {
		if l > maxLvl {
			maxLvl = l
		}
	}
	out := make([]level, maxLvl)
	for _, rp := range p.all {
		lv := &out[lvl[rp.r.Head.Pred]-1]
		lv.rules = append(lv.rules, rp)
		for _, pr := range rp.r.Body {
			if pr.Kind == ast.Hyp && p.own[pr.Atom.Pred] {
				lv.naive = true
			}
		}
	}
	return out, nil
}

// Owns reports whether the prover's Δ part defines the predicate.
func (p *Prover) Owns(pred symbols.Pred) bool { return p.own[pred] }

// Holds reports whether the goal atom is in the perfect model of the Δ
// part over the state (or in the state itself).
func (p *Prover) Holds(goal facts.AtomID, st facts.State) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	m, err := p.Materialise(st)
	if err != nil {
		return false, err
	}
	return m.has(goal), nil
}

// HoldsCtx is Holds with cancellation: a materialisation in progress is
// aborted with topdown.ErrCanceled / topdown.ErrDeadline (wrapped in a
// *topdown.AbortError) when ctx is canceled. Aborted materialisations are
// not cached.
func (p *Prover) HoldsCtx(ctx context.Context, goal facts.AtomID, st facts.State) (bool, error) {
	restore, err := p.pushCtx(ctx)
	if err != nil {
		return false, err
	}
	if restore != nil {
		defer restore()
	}
	return p.Holds(goal, st)
}

// pushCtx installs ctx as the prover's cancellation source for one public
// call; nil or never-cancellable contexts disable polling (and return a
// nil restore, keeping that path allocation-free).
func (p *Prover) pushCtx(ctx context.Context) (func(), error) {
	if ctx == nil || ctx.Done() == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, topdown.ContextAbort(err, topdown.Stats{})
	}
	saved := p.ctx
	p.ctx = ctx
	return func() { p.ctx = saved }, nil
}

// poll checks the installed context and the shared memory budget.
func (p *Prover) poll() error {
	if p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return topdown.ContextAbort(err, topdown.Stats{})
		}
	}
	if p.mem.Over() {
		return &topdown.AbortError{
			Reason: topdown.ErrMemory,
			Limit:  p.mem.Max(),
			Stats:  topdown.Stats{MemBytes: p.mem.Grown()},
		}
	}
	return nil
}

// Materialise computes (or returns the cached) perfect model of the Δ part
// over the state, per the paper's PROVE_Δi main loop.
func (p *Prover) Materialise(st facts.State) (atomSet, error) {
	key := st.Key()
	if m, ok := p.cache[key]; ok {
		return m.atoms, nil
	}
	metrics.Default.DeltaMaterialisations.Inc()
	m := newModel(atomSet{})
	defer p.release(m)
	for _, lv := range p.levels {
		if err := p.lfp(lv, st, m); err != nil {
			// The partial model is discarded; release its charges.
			p.mem.Add(-matAtomBytes * int64(len(m.atoms)))
			return nil, err
		}
	}
	if len(p.cache) < p.maxCache {
		p.cache[key] = &matEntry{delta: st.Delta, atoms: m.atoms}
		p.mem.Add(matEntryOverhead + int64(len(key)))
	} else {
		// Not cached: the model is garbage once the caller is done.
		p.mem.Add(-matAtomBytes * int64(len(m.atoms)))
	}
	return m.atoms, nil
}

// lfp builds one negation level of the model (the paper's LFP_i / T_i).
// A full pass over the level's rules seeds the frontier; semi-naive
// rounds then join each rule with one premise pinned to an atom the
// previous round derived. A naive level repeats full passes instead.
func (p *Prover) lfp(lv level, st facts.State, m *model) error {
	for {
		if err := p.poll(); err != nil {
			return err
		}
		p.stats.Rounds++
		var fresh []facts.AtomID
		collect := func(h facts.AtomID) error {
			if p.insert(m, st, h) {
				fresh = append(fresh, h)
			}
			return nil
		}
		mark := len(p.frames)
		for _, rp := range lv.rules {
			binding := p.pushFrame(rp.r.NumVars)
			err := p.joinAt(rp.r, rp.order, binding, 0, st, m, func() error {
				return p.deriveHeads(rp.r, binding, collect)
			})
			p.frames = p.frames[:mark]
			if err != nil {
				return err
			}
		}
		if len(fresh) == 0 {
			return nil
		}
		if !lv.naive && !p.naive {
			return p.propagate(lv.rules, st, m, fresh)
		}
	}
}

// propagate runs semi-naive rounds over the rules: each round joins every
// rule with one premise pinned to a frontier atom, and the heads new to
// the model form the next frontier.
func (p *Prover) propagate(rules []*rulePlan, st facts.State, m *model, frontier []facts.AtomID) error {
	for len(frontier) > 0 {
		if err := p.poll(); err != nil {
			return err
		}
		p.stats.Rounds++
		var next []facts.AtomID
		err := p.pinnedJoin(rules, st, m, frontier, func(h facts.AtomID) error {
			if p.insert(m, st, h) {
				next = append(next, h)
			}
			return nil
		})
		if err != nil {
			return err
		}
		frontier = next
	}
	return nil
}

// pinnedJoin joins each rule once per (pinnable premise, frontier atom of
// its predicate) pair: the premise is bound to the frontier atom, the
// remaining premises evaluate against the state and model, and every
// resulting head instance is yielded.
func (p *Prover) pinnedJoin(rules []*rulePlan, st facts.State, m *model, frontier []facts.AtomID, yield func(facts.AtomID) error) error {
	var byPred map[symbols.Pred][]facts.AtomID
	if n := len(p.spare); n > 0 {
		byPred, p.spare = p.spare[n-1], p.spare[:n-1]
	} else {
		byPred = make(map[symbols.Pred][]facts.AtomID)
	}
	mark := len(p.frames)
	defer func() {
		p.frames = p.frames[:mark]
		for pred, ids := range byPred {
			byPred[pred] = ids[:0]
		}
		p.spare = append(p.spare, byPred)
	}()
	for _, id := range frontier {
		pred := p.in.Pred(id)
		byPred[pred] = append(byPred[pred], id)
	}
	for _, rp := range rules {
		r := rp.r
		p.frames = p.frames[:mark]
		binding := p.pushFrame(r.NumVars)
		for bi, order := range rp.pinned {
			if order == nil {
				continue
			}
			for _, fa := range byPred[r.Body[bi].Atom.Pred] {
				err := p.tryMatch(r.Body[bi].Atom, binding, fa, func() error {
					return p.joinAt(r, order, binding, 0, st, m, func() error {
						return p.deriveHeads(r, binding, yield)
					})
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// deriveHeads yields the rule head grounded under a binding that
// satisfies the body. Head variables with no body occurrence are still
// unbound; the Definition 3 substitution ranges them over the domain.
func (p *Prover) deriveHeads(r *ast.CRule, binding []symbols.Const, yield func(facts.AtomID) error) error {
	p.stats.RuleFires++
	var buf [facts.GroundBuf]int
	free := appendAtomUnbound(buf[:0], r.Head, binding)
	if len(free) == 0 {
		return yield(p.ground(r.Head, binding))
	}
	return p.enumSlotsThen(free, binding, func() error {
		return yield(p.ground(r.Head, binding))
	})
}

const unbound symbols.Const = -1

// pushFrame pushes an all-unbound binding of n slots onto p.frames; the
// caller truncates p.frames back to its previous length when done. A
// frame keeps the backing array it was cut from if a deeper push
// reallocates the stack, so frames never alias.
func (p *Prover) pushFrame(n int) []symbols.Const {
	m := len(p.frames)
	for i := 0; i < n; i++ {
		p.frames = append(p.frames, unbound)
	}
	return p.frames[m : m+n : m+n]
}

// premiseOrder: state-matchable premises first (own preds and extensional,
// which bind variables by scanning materialised/state atoms), then
// hypothetical and oracle-answered premises, negations last.
func (p *Prover) premiseOrder(r *ast.CRule) []int {
	var matchable, middle, negs []int
	for i := range r.Body {
		pr := &r.Body[i]
		switch {
		case pr.Kind == ast.Negated:
			negs = append(negs, i)
		case p.pinnable(pr):
			matchable = append(matchable, i)
		default:
			middle = append(middle, i)
		}
	}
	out := append(matchable, middle...)
	return append(out, negs...)
}

// pinnable reports whether a premise is plain and matched locally (own or
// extensional predicate), so a semi-naive round can bind it to an atom.
func (p *Prover) pinnable(pr *ast.CPremise) bool {
	return pr.Kind == ast.Plain && !p.oracleOwned(pr.Atom.Pred)
}

// oracleOwned reports whether a predicate must be answered by the oracle:
// it is intensional in the full program but not defined in this Δ part.
func (p *Prover) oracleOwned(pred symbols.Pred) bool {
	return p.prog.IDB[pred] && !p.own[pred]
}

func (p *Prover) joinAt(r *ast.CRule, order []int, binding []symbols.Const, pi int, st facts.State, m *model, yield func() error) error {
	p.steps++
	if p.steps%ctxCheckInterval == 0 {
		if err := p.poll(); err != nil {
			return err
		}
	}
	if pi == len(order) {
		return yield()
	}
	pr := &r.Body[order[pi]]
	next := func() error {
		return p.joinAt(r, order, binding, pi+1, st, m, yield)
	}
	switch pr.Kind {
	case ast.Plain:
		if p.own[pr.Atom.Pred] {
			// TEST⁰: membership in DB (state) or the growing model.
			return p.match(pr.Atom, binding, st, m, next)
		}
		if !p.oracleOwned(pr.Atom.Pred) {
			// Extensional: match the state.
			return p.match(pr.Atom, binding, st, nil, next)
		}
		// Defined below: enumerate and ask the oracle.
		return p.enumThen(pr, binding, func() error {
			ok, err := p.askOracle(p.ground(pr.Atom, binding), st)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return next()
		})
	case ast.Hyp:
		return p.enumThen(pr, binding, func() error {
			ext := st
			for _, a := range pr.Adds {
				ext = ext.Add(p.ground(a, binding))
			}
			for _, a := range pr.Dels {
				ext = ext.Del(p.ground(a, binding))
			}
			ok, err := p.askOracleOrModel(p.ground(pr.Atom, binding), st, ext, m)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return next()
		})
	case ast.Negated:
		// Negation-local variables (not occurring positively in the rule)
		// are quantified inside the negation.
		var slotBuf, enumBuf, localBuf [facts.GroundBuf]int
		enumSlots, localSlots := enumBuf[:0], localBuf[:0]
		for _, s := range appendUnboundSlots(slotBuf[:0], pr, binding) {
			if r.PosVar[s] {
				enumSlots = append(enumSlots, s)
			} else {
				localSlots = append(localSlots, s)
			}
		}
		return p.enumSlotsThen(enumSlots, binding, func() error {
			holds, err := p.negInstance(pr.Atom, binding, localSlots, st, m)
			if err != nil {
				return err
			}
			if holds {
				return nil
			}
			return next()
		})
	default:
		return fmt.Errorf("bottomup: premise kind %v", pr.Kind)
	}
}

// askOracle answers a goal defined below the Δ part.
func (p *Prover) askOracle(goal facts.AtomID, st facts.State) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	if !p.prog.IDB[p.in.Pred(goal)] {
		return false, nil
	}
	if p.oracle == nil {
		return false, fmt.Errorf("bottomup: goal %s needs an oracle but none is configured",
			p.in.Format(goal))
	}
	return p.oracle(goal, st)
}

// askOracleOrModel evaluates a hypothetical premise target. If the target
// predicate is owned by this Δ part and the additions changed nothing, it
// reads the growing model (monotone); owned targets with real additions
// are materialised recursively; everything else goes to the oracle.
func (p *Prover) askOracleOrModel(goal facts.AtomID, st, ext facts.State, m *model) (bool, error) {
	if ext.Has(goal) {
		return true, nil
	}
	pred := p.in.Pred(goal)
	if p.own[pred] {
		if ext.Key() == st.Key() {
			return m.atoms.has(goal), nil
		}
		// H-stratification normally rules this out; fall back to a
		// recursive materialisation of the extended state for generality.
		atoms, err := p.Materialise(ext)
		if err != nil {
			return false, err
		}
		return atoms.has(goal), nil
	}
	return p.askOracle(goal, ext)
}

// negInstance reports whether some instantiation of localSlots makes the
// atom derivable (state, model, or oracle).
func (p *Prover) negInstance(a ast.CAtom, binding []symbols.Const, localSlots []int, st facts.State, m *model) (bool, error) {
	if len(localSlots) == 0 {
		return p.testAtom(p.ground(a, binding), st, m)
	}
	found := false
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(localSlots) {
			ok, err := p.testAtom(p.ground(a, binding), st, m)
			if err != nil {
				return err
			}
			if ok {
				found = true
				return errStop
			}
			return nil
		}
		for _, c := range p.dom {
			binding[localSlots[i]] = c
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(0)
	for _, s := range localSlots {
		binding[s] = unbound
	}
	if err != nil && err != errStop {
		return false, err
	}
	return found, nil
}

// testAtom is TEST⁰ for a ground atom: state, then own model, then oracle.
func (p *Prover) testAtom(goal facts.AtomID, st facts.State, m *model) (bool, error) {
	if st.Has(goal) {
		return true, nil
	}
	if p.own[p.in.Pred(goal)] {
		return m.atoms.has(goal), nil
	}
	return p.askOracle(goal, st)
}

var errStop = fmt.Errorf("bottomup: stop")

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// enumThen enumerates all unbound slots of a premise over the domain.
func (p *Prover) enumThen(pr *ast.CPremise, binding []symbols.Const, leaf func() error) error {
	var buf [facts.GroundBuf]int
	return p.enumSlotsThen(appendUnboundSlots(buf[:0], pr, binding), binding, leaf)
}

func (p *Prover) enumSlotsThen(slots []int, binding []symbols.Const, leaf func() error) error {
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(slots) {
			return leaf()
		}
		for _, c := range p.dom {
			binding[slots[i]] = c
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		binding[slots[i]] = unbound
		return nil
	}
	return rec(0)
}

// appendUnboundSlots appends to dst the unbound variable slots of a
// premise (atom plus adds and dels) not already in dst, each once, in
// first-occurrence order.
func appendUnboundSlots(dst []int, pr *ast.CPremise, binding []symbols.Const) []int {
	dst = appendAtomUnbound(dst, pr.Atom, binding)
	for _, a := range pr.Adds {
		dst = appendAtomUnbound(dst, a, binding)
	}
	for _, a := range pr.Dels {
		dst = appendAtomUnbound(dst, a, binding)
	}
	return dst
}

func appendAtomUnbound(dst []int, a ast.CAtom, binding []symbols.Const) []int {
	for _, t := range a.Args {
		if t.IsVar() && binding[t.VarSlot()] == unbound && !contains(dst, t.VarSlot()) {
			dst = append(dst, t.VarSlot())
		}
	}
	return dst
}

// match enumerates the bindings under which the pattern matches an atom
// of the state or, when m is non-nil, of the model. Both sides are probed
// through their index on the first bound argument.
func (p *Prover) match(pattern ast.CAtom, binding []symbols.Const, st facts.State, m *model, yield func() error) error {
	pos, val := -1, unbound
	for i, t := range pattern.Args {
		var v symbols.Const
		if t.IsVar() {
			v = binding[t.VarSlot()]
		} else {
			v = t.ConstID()
		}
		if v != unbound {
			pos, val = i, v
			break
		}
	}
	var base, derived []facts.AtomID
	if pos >= 0 {
		base = p.base.ByPredArg(pattern.Pred, pos, val)
	} else {
		base, val = p.base.ByPred(pattern.Pred), 0
	}
	if m != nil {
		derived = p.postings(m, pattern.Pred, pos, val)
	}
	for _, id := range base {
		if st.Delta.Deleted(id) {
			continue // hypothetically deleted
		}
		if err := p.tryMatch(pattern, binding, id, yield); err != nil {
			return err
		}
	}
	for _, id := range st.Delta.IDs() {
		if p.in.Pred(id) != pattern.Pred || p.base.Has(id) {
			continue
		}
		if err := p.tryMatch(pattern, binding, id, yield); err != nil {
			return err
		}
	}
	// The range is over a snapshot: yield may append to the posting list,
	// and atoms derived meanwhile reach later rounds through the frontier.
	for _, id := range derived {
		if err := p.tryMatch(pattern, binding, id, yield); err != nil {
			return err
		}
	}
	return nil
}

func (p *Prover) tryMatch(pattern ast.CAtom, binding []symbols.Const, id facts.AtomID, yield func() error) error {
	p.stats.JoinProbes++
	args := p.in.Args(id)
	var buf [facts.GroundBuf]int
	boundHere := buf[:0]
	ok := true
	for i, t := range pattern.Args {
		if t.IsVar() {
			s := t.VarSlot()
			switch binding[s] {
			case unbound:
				binding[s] = args[i]
				boundHere = append(boundHere, s)
			case args[i]:
			default:
				ok = false
			}
		} else if t.ConstID() != args[i] {
			ok = false
		}
		if !ok {
			break
		}
	}
	var err error
	if ok {
		err = yield()
	}
	for _, s := range boundHere {
		binding[s] = unbound
	}
	return err
}

// ground interns an atom under a (fully binding) substitution. The
// arguments are built on the stack; only a first interning copies.
func (p *Prover) ground(a ast.CAtom, binding []symbols.Const) facts.AtomID {
	var buf [facts.GroundBuf]symbols.Const
	args := buf[:0]
	for _, t := range a.Args {
		if !t.IsVar() {
			args = append(args, t.ConstID())
			continue
		}
		v := binding[t.VarSlot()]
		if v == unbound {
			panic("bottomup: grounding with unbound variable")
		}
		args = append(args, v)
	}
	return p.in.ID(a.Pred, args)
}
