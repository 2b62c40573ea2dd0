package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
)

// graph is the benchmark's own model of a reachability EDB over nodes
// v0..v{n-1}, n <= 64: row i is the bitset of i's successors. Every
// graph holds the spine v0 -> v1 -> ... -> v{n-1}, as in E16's
// workload.MixedReachability, plus non-spine edges; the model answers
// every reach question by BFS, independently of the engines under test.
type graph struct {
	n   int
	adj []uint64
}

const reachRules = "reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y).\n"

// shapeSeed fixes every generated graph, so that runs with different
// seeds evaluate the same program and differ only in the ops they send.
// Relabelling the nodes per seed would not do: the engines' cost depends
// on the labels (set-up took 50 to 69 ms across labellings of one shape).
const shapeSeed = 1

// newSpine is the spine alone.
func newSpine(n int) *graph {
	if n < 2 || n > 64 {
		panic(fmt.Sprintf("graph size %d outside 2..64", n))
	}
	g := &graph{n: n, adj: make([]uint64, n)}
	for i := 0; i+1 < n; i++ {
		g.adj[i] |= 1 << uint(i+1)
	}
	return g
}

// newGraph is the spine plus m distinct non-spine edges, fixed by
// shapeSeed for n and m.
func newGraph(n, m int) *graph {
	g := newSpine(n)
	rng := rand.New(rand.NewSource(shapeSeed*1000 + int64(n)*64 + int64(m)))
	for g.extra() < m {
		if e := g.randomEdge(rng); !g.has(e) {
			g.set(e, true)
		}
	}
	return g
}

func (g *graph) clone() *graph {
	c := *g
	c.adj = append([]uint64(nil), g.adj...)
	return &c
}

func (g *graph) first() int { return 0 }
func (g *graph) last() int  { return g.n - 1 }

// freshEdges lists the absent non-spine edges in an order fixed by
// shapeSeed.
func (g *graph) freshEdges() [][2]int {
	var out [][2]int
	for _, i := range rand.New(rand.NewSource(shapeSeed)).Perm(g.n * g.n) {
		e := [2]int{i / g.n, i % g.n}
		if e[0] != e[1] && !g.spineEdge(e) && !g.has(e) {
			out = append(out, e)
		}
	}
	return out
}

func (g *graph) spineEdge(e [2]int) bool { return e[1] == e[0]+1 }

// randomEdge draws a non-spine edge, present or not.
func (g *graph) randomEdge(rng *rand.Rand) [2]int {
	for {
		e := [2]int{rng.Intn(g.n), rng.Intn(g.n)}
		if e[0] != e[1] && !g.spineEdge(e) {
			return e
		}
	}
}

func (g *graph) has(e [2]int) bool { return g.adj[e[0]]&(1<<uint(e[1])) != 0 }

func (g *graph) set(e [2]int, on bool) {
	if on {
		g.adj[e[0]] |= 1 << uint(e[1])
	} else {
		g.adj[e[0]] &^= 1 << uint(e[1])
	}
}

// extra counts the non-spine edges.
func (g *graph) extra() int {
	c := 0
	for _, row := range g.adj {
		c += bits.OnesCount64(row)
	}
	return c - (g.n - 1)
}

// reachFrom is the set of nodes reachable from x by a path of one or
// more edges: exactly the Y with reach(x, Y).
func (g *graph) reachFrom(x int, add *[2]int) uint64 {
	succ := func(y int) uint64 {
		s := g.adj[y]
		if add != nil && add[0] == y {
			s |= 1 << uint(add[1])
		}
		return s
	}
	var seen uint64
	frontier := succ(x)
	for frontier != 0 {
		fresh := frontier &^ seen
		if fresh == 0 {
			break
		}
		seen |= fresh
		frontier = 0
		for w := fresh; w != 0; w &= w - 1 {
			frontier |= succ(bits.TrailingZeros64(w))
		}
	}
	return seen
}

func (g *graph) reaches(x, y int, add *[2]int) bool {
	return g.reachFrom(x, add)&(1<<uint(y)) != 0
}

// program renders the model as hypothetical-Datalog source. node/1
// anchors every constant in dom(R, DB), so any edge toggle is in domain.
func (g *graph) program() string {
	var b strings.Builder
	b.WriteString(reachRules)
	for a := 0; a < g.n; a++ {
		fmt.Fprintf(&b, "node(v%d).\n", a)
	}
	for _, e := range g.edges() {
		fmt.Fprintf(&b, "edge(v%d, v%d).\n", e[0], e[1])
	}
	return b.String()
}

// edges lists the edges by tail, then by head.
func (g *graph) edges() [][2]int {
	var out [][2]int
	for a := 0; a < g.n; a++ {
		for _, c := range nodeSet(g.adj[a]) {
			out = append(out, [2]int{a, c})
		}
	}
	return out
}

func edgeAtom(e [2]int) string { return fmt.Sprintf("edge(v%d, v%d)", e[0], e[1]) }

// node parses a constant "v<i>".
func node(s string) (int, error) {
	if !strings.HasPrefix(s, "v") {
		return 0, fmt.Errorf("constant %q is not a node", s)
	}
	return strconv.Atoi(s[1:])
}

func nodeSet(set uint64) []int {
	var out []int
	for w := set; w != 0; w &= w - 1 {
		out = append(out, bits.TrailingZeros64(w))
	}
	return out
}

// churnGen is the stationary write generator of the churn workload.
// Each commit toggles one edge of the initial graph's non-spine edge
// pool: it retracts the next pool edge, and the next commit asserts it
// back, in an order fixed by shapeSeed. The non-spine edge count stays
// at its initial value or one below, and the graph never drifts from the
// initial shape. Uniform toggles of random edges (workload.MixedReachability) let
// the count drift upward, so a faster build would reach denser graphs and
// pay more per op, and the graphs a run visits, with the cost of each
// commit, would differ from run to run.
type churnGen struct {
	rng   *rand.Rand
	g     *graph
	pool  [][2]int
	order []int   // pool indexes still to retract in this pass
	out   *[2]int // the pool edge currently retracted
	last  int     // pool index of the latest retraction
}

func newChurnGen(g *graph) *churnGen {
	c := &churnGen{rng: rand.New(rand.NewSource(shapeSeed)), g: g.clone()}
	for _, e := range g.edges() {
		if !g.spineEdge(e) {
			c.pool = append(c.pool, e)
		}
	}
	return c
}

// next picks the edge to toggle and applies it to the generator's graph.
func (c *churnGen) next() (e [2]int, assert bool) {
	if c.out != nil {
		e, c.out = *c.out, nil
		c.g.set(e, true)
		return e, true
	}
	if len(c.order) == 0 {
		c.order = c.rng.Perm(len(c.pool))
	}
	c.last, c.order = c.order[0], c.order[1:]
	e = c.pool[c.last]
	c.out = &e
	c.g.set(e, false)
	return e, false
}

// undo reverts the latest next, for a commit that did not happen.
func (c *churnGen) undo(e [2]int, assert bool) {
	c.g.set(e, !assert)
	if assert {
		c.out = &e
	} else {
		c.out = nil
		c.order = append([]int{c.last}, c.order...)
	}
}
