package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/live"
	"hypodatalog/internal/metrics"
)

// Sizes of the serving workloads (read-warm, churn).
const (
	serveN     = 64       // nodes v0..v63
	serveExtra = 64       // non-spine edges: fixed on read-warm, the stationary target on churn
	clients    = 2        // closed-loop clients, one keep-alive connection each
	poolSize   = 2        // hdld -pool
	cacheBytes = 16 << 20 // hdld -cache-bytes: holds read-warm's whole working set
	replayOps  = 400      // ops per depth in a traced run's replay
	probeOps   = 16       // commits in the commit probe of workloads without commits
	// snapshotEvery is hdld's -snapshot-every default.
	snapshotEvery = 1024
)

// serving describes one serving workload. Op kinds follow a fixed
// cycle, so the mix does not vary from run to run; the seed draws only
// the arguments.
type serving struct {
	g     *graph
	cycle []opKind
	warm  []op // untimed reads before measuring
	args  func(*rand.Rand, op) op
}

// next is the i-th op of a client's stream.
func (w *serving) next(rng *rand.Rand, i int) op {
	o := op{kind: w.cycle[i%len(w.cycle)]}
	if o.kind == opCommit {
		return o
	}
	return w.args(rng, o)
}

func (w *serving) commits() bool {
	for _, k := range w.cycle {
		if k == opCommit {
			return true
		}
	}
	return false
}

// readWarm: a fixed working set of ground asks, open queries and a few
// repeated what-ifs, so that after warm-up nearly every read is a cache
// hit and the serving stack, not the engine, does the work.
func readWarm(seed int64) *serving { return readWarmOn(newGraph(serveN, serveExtra), seed) }

// readWarmOn draws read-warm's working set over g. The op mix is one
// ask, one query and one askunder: E16's reads alternate between ground
// and open reach queries, and no measured traffic in the repository has
// what-ifs, so they get an equal share.
func readWarmOn(g *graph, seed int64) *serving {
	rng := rand.New(rand.NewSource(seed))
	var asks, queries, whatifs []op
	for len(asks) < 256 {
		asks = append(asks, op{kind: opAsk, x: rng.Intn(g.n), y: rng.Intn(g.n)})
	}
	for _, x := range rng.Perm(g.n)[:16] {
		queries = append(queries, op{kind: opQuery, x: x})
	}
	for len(whatifs) < 2 {
		e := g.randomEdge(rng)
		if !g.has(e) {
			whatifs = append(whatifs, op{kind: opWhatIf, x: e[1], y: rng.Intn(g.n), edge: e})
		}
	}
	w := &serving{g: g, warm: append(append(append([]op(nil), asks...), queries...), whatifs...),
		cycle: []opKind{opAsk, opQuery, opWhatIf}}
	w.args = func(rng *rand.Rand, o op) op {
		switch o.kind {
		case opAsk:
			return asks[rng.Intn(len(asks))]
		case opQuery:
			return queries[rng.Intn(len(queries))]
		}
		return whatifs[rng.Intn(len(whatifs))]
	}
	return w
}

// churn: E16's op stream (workload.MixedReachability) with one op in
// ten a commit. Its reads alternate between the ground
// reach(v0, v{n-1}) and an open reach(vi, Y) with a random i.
func churn(seed int64) *serving {
	w := &serving{g: newGraph(serveN, serveExtra), warm: []op{{kind: opAsk, x: 0, y: serveN - 1}, {kind: opQuery, x: 0}}}
	// 20 ops: 9 asks, 9 queries, 2 commits.
	for i, reads := 0, 0; i < 20; i++ {
		switch {
		case i%10 == 9:
			w.cycle = append(w.cycle, opCommit)
			continue
		case reads%2 == 0:
			w.cycle = append(w.cycle, opAsk)
		default:
			w.cycle = append(w.cycle, opQuery)
		}
		reads++
	}
	w.args = func(rng *rand.Rand, o op) op {
		if o.kind == opAsk {
			o.x, o.y = w.g.first(), w.g.last()
		} else {
			o.x = rng.Intn(serveN)
		}
		return o
	}
	return w
}

// committer serialises the workload's commits so that the model knows
// the graph at every version: it records version v+1 before sending the
// commit that creates it, so a read served at v+1 ahead of the commit's
// acknowledgement is already checkable.
type committer struct {
	mu      sync.Mutex
	gen     *churnGen
	vers    *versions
	version uint64

	// mem is the live heap in MB once version memAt is committed. The
	// answer cache keeps entries of old versions until its budget is
	// spent, so the heap grows with the reads served: a checkpoint at a
	// fixed version, reached after about as many reads on every run,
	// measures a state that does not depend on how fast the run went.
	memAt uint64
	mem   float64
}

// memCheckpoint is the churn version at which mem_live_mb is taken.
const memCheckpoint = 64

func newCommitter(g *graph, vers *versions) *committer {
	return &committer{gen: newChurnGen(g), vers: vers}
}

func (c *committer) commit(ctx context.Context, l layer, o *op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	o.edge, o.assert = c.gen.next()
	ver := c.version + 1
	c.vers.put(ver, c.gen.g)
	a, err := l.do(ctx, *o)
	if err != nil {
		c.gen.undo(o.edge, o.assert)
		c.vers.drop(ver)
		return err
	}
	if a.version != ver || a.changed != 1 {
		return wrongf("%s: acknowledged version %d changing %d facts, want version %d changing 1", o, a.version, a.changed, ver)
	}
	c.version = ver
	if ver == c.memAt {
		c.mem = liveHeapMB()
	}
	return nil
}

// opStream draws a fixed op stream for a depth replay, with concrete
// commits whose versions are recorded in vers.
func opStream(w *serving, seed int64, n int, vers *versions) []op {
	rng := rand.New(rand.NewSource(seed))
	cm := newCommitter(w.g, vers)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.next(rng, i)
		if ops[i].kind == opCommit {
			ops[i].edge, ops[i].assert = cm.gen.next()
			cm.version++
			vers.put(cm.version, cm.gen.g)
		}
	}
	return ops
}

func serveConfig(wrap func(http.Handler) http.Handler) stackConfig {
	return stackConfig{poolSize: poolSize, cacheBytes: cacheBytes, listen: true, wrap: wrap}
}

// setupServing is one set-up: parse the program text, open the live
// store and its WAL, start the server on a loopback listener, and get the
// first checked answer over HTTP.
func setupServing(ctx context.Context, dir string, w *serving, vers *versions, wrap func(http.Handler) http.Handler) (*stack, time.Duration, error) {
	t0 := time.Now()
	prog, err := hypo.Parse(w.g.program())
	if err != nil {
		return nil, 0, err
	}
	s, err := openStack(ctx, dir, prog, serveConfig(wrap))
	if err != nil {
		return nil, 0, err
	}
	l := newHTTPLayer(s.base)
	defer l.close()
	first := op{kind: opAsk, x: w.g.first(), y: w.g.last()}
	a, err := l.do(ctx, first)
	if err == nil {
		err = vers.check(first, a)
	}
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first answer: %w", err)
	}
	return s, time.Since(t0), nil
}

// setupMedian runs setupRuns set-ups and keeps the last stack.
func setupMedian(ctx context.Context, cfg config, w *serving, vers *versions, wrap func(http.Handler) http.Handler) (*stack, float64, error) {
	var times []float64
	var s *stack
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
		}
		var d time.Duration
		var err error
		s, d, err = setupServing(ctx, filepath.Join(cfg.dir, "setup"+strconv.Itoa(i)), w, vers, wrap)
		if err != nil {
			return nil, 0, err
		}
		if i >= setupWarm {
			times = append(times, d.Seconds())
		}
	}
	return s, median(times), nil
}

func warmUp(ctx context.Context, l layer, ops []op, vers *versions) error {
	for _, o := range ops {
		a, err := l.do(ctx, o)
		if err == nil {
			err = vers.check(o, a)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", o, err)
		}
	}
	return nil
}

type loopResult struct {
	lat               [numOpKinds]*hist // latencies by op kind
	attempted, failed int64
	elapsed           time.Duration
}

func newLoopResult() loopResult {
	var r loopResult
	for k := range r.lat {
		r.lat[k] = newHist()
	}
	return r
}

// reads merges the latencies of every read kind.
func (r loopResult) reads() *hist {
	h := newHist()
	for k := opKind(0); k < opCommit; k++ {
		h.merge(r.lat[k])
	}
	return h
}

// readP50 is each read kind's median latency, averaged with the kinds'
// shares of the reads. A workload's read kinds differ in cost severalfold,
// so the median of all reads falls where one kind's latencies end and the
// next kind's begin, and there a small shift in the kinds' shares or
// relative speed moves it by a third. Each kind's own median lies inside
// that kind's latencies.
func (r loopResult) readP50() float64 {
	var sum float64
	n := float64(r.reads().n)
	for k := opKind(0); k < opCommit; k++ {
		if h := r.lat[k]; h.n > 0 {
			sum += float64(h.n) / n * h.quantile(0.5)
		}
	}
	return sum
}

func (r loopResult) readOps() float64 { return float64(r.reads().n) / r.elapsed.Seconds() }

// closedLoop runs the workload's clients for d: each client sends its
// next op only after the previous one completed. Every answer is
// checked; a wrong one stops the loop with an errWrong error. With tr
// set, every op records a client span whose id the server-side wrapper
// shares.
func closedLoop(ctx context.Context, base string, w *serving, cm *committer, vers *versions, seed int64, d time.Duration, tr *tracer, ids *atomic.Int64) (loopResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	out := newLoopResult()
	var firstErr error
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := newHTTPLayer(base)
			defer l.close()
			rng := rand.New(rand.NewSource(seed*1009 + int64(c)))
			mine := newLoopResult()
			// Clients start half a cycle apart, so their commits interleave.
			for i := c * len(w.cycle) / clients; ctx.Err() == nil && time.Now().Before(deadline); i++ {
				o := w.next(rng, i)
				if tr != nil {
					o.id = ids.Add(1)
				}
				t0 := time.Now()
				var err error
				if o.kind == opCommit {
					err = cm.commit(ctx, l, &o)
				} else {
					var a answer
					if a, err = l.do(ctx, o); err == nil {
						err = vers.check(o, a)
					}
				}
				t1 := time.Now()
				tr.record("client."+opNames[o.kind], "", o.id, t0, t1)
				mine.attempted++
				switch {
				case errors.Is(err, errWrong):
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
				case err != nil:
					mine.failed++
				default:
					mine.lat[o.kind].add(t1.Sub(t0))
				}
			}
			mu.Lock()
			for k, h := range mine.lat {
				out.lat[k].merge(h)
			}
			out.attempted += mine.attempted
			out.failed += mine.failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	if firstErr == nil && out.reads().n == 0 {
		firstErr = errors.New("no read completed in the window")
	}
	return out, firstErr
}

func runServing(ctx context.Context, cfg config, w *serving) (*result, error) {
	if cfg.trace {
		return traceServing(ctx, cfg, w)
	}
	vers := newVersions(w.g)
	s, setup, err := setupMedian(ctx, cfg, w, vers, nil)
	if err != nil {
		return nil, err
	}
	defer s.close()
	l := newHTTPLayer(s.base)
	err = warmUp(ctx, l, w.warm, vers)
	l.close()
	if err != nil {
		return nil, err
	}
	cm := newCommitter(w.g, vers)
	cm.memAt = memCheckpoint
	lr, err := closedLoop(ctx, s.base, w, cm, vers, cfg.seed, cfg.window, nil, nil)
	if err != nil {
		return nil, err
	}
	mem := cm.mem
	if mem == 0 { // read-warm, or churn committed fewer than memCheckpoint versions
		mem = liveHeapMB()
	}
	res := &result{attempted: lr.attempted, failed: lr.failed}
	res.set("setup_s", setup)
	res.set("read_p50_us", lr.readP50())
	res.set("read_ops_s", lr.readOps())
	res.set("mem_live_mb", mem)
	return res, s.close()
}

func runReadWarm(ctx context.Context, cfg config) (*result, error) {
	return runServing(ctx, cfg, readWarm(cfg.seed))
}

func runChurn(ctx context.Context, cfg config) (*result, error) {
	return runServing(ctx, cfg, churn(cfg.seed))
}

// counts are the metric-set counters the per-layer metrics report as
// deltas over the traced window.
type counts struct {
	shed, hits, misses, coalesced, carried, evictions  int64
	incremental, fallbacks, rebuilds, substrates, news int64
}

func countsOf(m *metrics.Set) counts {
	return counts{
		m.HTTPShed.Value(), m.CacheHits.Value(), m.CacheMisses.Value(), m.CacheCoalesced.Value(),
		m.CacheCarried.Value(), m.CacheEvictions.Value(),
		m.LiveIncrementalApplies.Value(), m.LiveIncrementalFallbacks.Value(), m.LiveRebuilds.Value(),
		m.LiveSubstrateBuilds.Value(), m.PoolNews.Value(),
	}
}

func (c counts) report(res *result, before counts) {
	hits := c.hits - before.hits + c.coalesced - before.coalesced
	reads := hits + c.misses - before.misses
	ratio := 0.0
	if reads > 0 {
		ratio = float64(hits) / float64(reads)
	}
	res.set("server.shed", float64(c.shed-before.shed))
	res.set("cache.hit_ratio", ratio)
	res.set("cache.carried", float64(c.carried-before.carried))
	res.set("cache.evictions", float64(c.evictions-before.evictions))
	res.set("catchup.incremental", float64(c.incremental-before.incremental))
	res.set("catchup.fallbacks", float64(c.fallbacks-before.fallbacks))
	res.set("catchup.rebuilds", float64(c.rebuilds-before.rebuilds))
	res.set("catchup.substrate_builds", float64(c.substrates-before.substrates))
	res.set("pool.news", float64(c.news-before.news))
}

// traceHandler wraps the server's handler with a span per request while
// on is set; the span's id comes from the client's X-Bench-Op header.
func traceHandler(tr *tracer, on *atomic.Bool) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !on.Load() {
				h.ServeHTTP(w, r)
				return
			}
			id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64) // absent: 0
			t0 := time.Now()
			h.ServeHTTP(w, r)
			tr.record("server.handler", "client", id, t0, time.Now())
		})
	}
}

// traceServing is the --trace 1 run of a serving workload.
func traceServing(ctx context.Context, cfg config, w *serving) (*result, error) {
	tr := newTracer()
	res := &result{}
	if err := frontLayers(res, w.g.program()); err != nil {
		return nil, err
	}
	var on atomic.Bool
	vers := newVersions(w.g)
	s, _, err := setupServing(ctx, filepath.Join(cfg.dir, "traced"), w, vers, traceHandler(tr, &on))
	if err != nil {
		return nil, err
	}
	defer s.close()
	l := newHTTPLayer(s.base)
	err = warmUp(ctx, l, w.warm, vers)
	l.close()
	if err != nil {
		return nil, err
	}

	// Half the window untraced, half traced: the difference is the
	// tracing overhead. Counts are deltas over the traced half.
	cm := newCommitter(w.g, vers)
	half := cfg.window / 2
	mp := startMemPeak()
	plain, err := closedLoop(ctx, s.base, w, cm, vers, cfg.seed, half, nil, nil)
	res.set("mem_peak_mb", mp.end())
	if err != nil {
		return nil, err
	}
	before := countsOf(s.mets)
	on.Store(true)
	var ids atomic.Int64
	traced, err := closedLoop(ctx, s.base, w, cm, vers, cfg.seed+1, half, tr, &ids)
	on.Store(false)
	if err != nil {
		return nil, err
	}
	countsOf(s.mets).report(res, before)
	res.attempted = plain.attempted + traced.attempted
	res.failed = plain.failed + traced.failed
	res.set("fail_frac", float64(res.failed)/float64(res.attempted))
	res.set("read_p99_us", plain.reads().quantile(0.99))
	res.set("trace.overhead_read_p50_us", traced.readP50()-plain.readP50())
	res.set("trace.overhead_read_ops_pct", 100*(plain.readOps()-traced.readOps())/plain.readOps())

	if w.commits() {
		res.set("commit_p50_us", plain.lat[opCommit].quantile(0.5))
		res.set("commit_p99_us", plain.lat[opCommit].quantile(0.99))
	}
	if err := layerProbes(ctx, cfg, w, res, tr); err != nil {
		return nil, err
	}
	cs, err := newColdSet(w.g, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := coldLayers(res, cs, false); err != nil {
		return nil, err
	}
	res.set("trace.spans", float64(len(tr.spans)))
	return res, tr.writeTo(traceFile(cfg))
}

func traceFile(cfg config) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl.gz", cfg.workload, cfg.seed))
}

// depthNames name the entry depths of a replay, shallowest first.
var depthNames = [4]string{"depth0.http", "depth1.handler", "depth2.pool", "depth3.bare"}

// replayResult holds each op's duration at each depth.
type replayResult struct {
	ops  []op
	d    [4][]time.Duration
	hit  []bool // depth 2 answered without running an engine
	bare *bareLayer
	wal  int64 // bare WAL bytes written by the replay's commits
}

// replay runs the warm ops untimed and then every op once at each depth,
// checking every answer. Commits must produce versions 1, 2, ... at
// every depth, so a depth that commits starts from a fresh store.
func replay(ctx context.Context, layers [4]layer, warm, ops []op, vers *versions, tr *tracer, idBase int64) (*replayResult, error) {
	r := &replayResult{ops: ops, hit: make([]bool, len(ops)), bare: layers[3].(*bareLayer)}
	walBefore := r.bare.walBytes()
	for depth, l := range layers {
		if err := warmUp(ctx, l, warm, vers); err != nil {
			return nil, fmt.Errorf("%s: %w", depthNames[depth], err)
		}
		r.d[depth] = make([]time.Duration, len(ops))
		var version uint64
		for i, o := range ops {
			t0 := time.Now()
			a, err := l.do(ctx, o)
			t1 := time.Now()
			if err == nil {
				if o.kind == opCommit {
					version++
					if a.version != version || a.changed != 1 {
						err = wrongf("%s: acknowledged version %d changing %d facts, want version %d changing 1", o, a.version, a.changed, version)
					}
				} else {
					err = vers.check(o, a)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("%s op %d: %w", depthNames[depth], i, err)
			}
			parent := ""
			if depth > 0 {
				parent = depthNames[depth-1]
			}
			tr.record(depthNames[depth], parent, idBase+int64(i), t0, t1)
			r.d[depth][i] = t1.Sub(t0)
			if depth == 2 {
				r.hit[i] = a.hit
			}
		}
	}
	r.wal = r.bare.walBytes() - walBefore
	return r, nil
}

// report turns the replay into self times: a layer's self time for one op
// is its depth's duration minus the next depth's, except that a read the
// pool served from its cache ran no engine, so its pool self time is the
// whole pool call.
func (r *replayResult) report(res *result) {
	var transport, handler, pool, engine, apply, validate []float64
	var commits int
	for i, o := range r.ops {
		d0, d1, d2, d3 := us(r.d[0][i]), us(r.d[1][i]), us(r.d[2][i]), us(r.d[3][i])
		if o.kind == opCommit {
			apply = append(apply, d2)
			validate = append(validate, d2-us(r.bare.storeCommit[commits]))
			commits++
			continue
		}
		transport = append(transport, d0-d1)
		handler = append(handler, d1-d2)
		if r.hit[i] {
			pool = append(pool, d2)
		} else {
			pool = append(pool, d2-d3)
		}
		engine = append(engine, d3/1000)
	}
	if len(transport) > 0 {
		res.set("server.transport_us", median(transport))
		res.set("server.handler_us", median(handler))
		res.set("pool.read_us", median(pool))
		res.set("engine.ask_ms", median(engine))
	}
	if commits > 0 {
		res.set("live.apply_us", median(apply))
		res.set("live.validate_swap_us", median(validate))
		res.set("live.store_commit_us", median(usAll(r.bare.storeCommit)))
		// The mean: a retraction's delete-and-rederive costs a hundred
		// times an assertion's propagation, so a median picks a side.
		var total time.Duration
		for _, d := range r.bare.applyDelta {
			total += d
		}
		res.set("catchup.apply_delta_us", us(total)/float64(commits))
		res.set("live.wal_bytes_per_mutation", float64(r.wal)/float64(commits))
	}
}

// replayFresh replays ops at the four depths, each over its own fresh
// store at version 0, built from g: loopback HTTP, the handler, the
// Pool/Live calls, and the bare engine plus store.
func replayFresh(ctx context.Context, cfg config, g *graph, warm, ops []op, vers *versions, tr *tracer, idBase int64) (*replayResult, error) {
	src := g.program()
	var stacks []*stack
	defer func() {
		for _, s := range stacks {
			s.close()
		}
	}()
	var layers [4]layer
	for depth := 0; depth < 3; depth++ {
		prog, err := hypo.Parse(src)
		if err != nil {
			return nil, err
		}
		s, err := openStack(ctx, filepath.Join(cfg.dir, "replay"+strconv.Itoa(depth)), prog, stackConfig{
			poolSize: poolSize, cacheBytes: cacheBytes, listen: depth == 0,
		})
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, s)
		switch depth {
		case 0:
			hl := newHTTPLayer(s.base)
			defer hl.close()
			layers[0] = hl
		case 1:
			layers[1] = handlerLayer{s.srv.Handler()}
		case 2:
			layers[2] = poolLayer{s.pl, s.lv}
		}
	}
	bare, err := newBare(filepath.Join(cfg.dir, "replay3"), src)
	if err != nil {
		return nil, err
	}
	layers[3] = bare
	r, err := replay(ctx, layers, warm, ops, vers, tr, idBase)
	if cerr := bare.close(); err == nil {
		err = cerr
	}
	return r, err
}

// layerProbes replays replayOps ops of w at every entry depth and
// reports the layers' self times. A workload whose ops never commit also
// replays probeOps commits, for the commit path's layers. Every workload
// then runs the compaction probe.
func layerProbes(ctx context.Context, cfg config, w *serving, res *result, tr *tracer) error {
	vers := newVersions(w.g)
	rep, err := replayFresh(ctx, cfg, w.g, w.warm, opStream(w, cfg.seed+2, replayOps, vers), vers, tr, 1<<40)
	if err != nil {
		return err
	}
	rep.report(res)
	if !w.commits() {
		probe := &serving{g: w.g, cycle: []opKind{opCommit}}
		vers := newVersions(w.g)
		rep, err := replayFresh(ctx, cfg, w.g, nil, opStream(probe, cfg.seed+3, probeOps, vers), vers, tr, 2<<40)
		if err != nil {
			return err
		}
		rep.report(res)
		res.set("commit_p50_us", quantile(usAll(rep.d[0]), 0.5))
		res.set("commit_p99_us", quantile(usAll(rep.d[0]), 0.99))
	}
	return compactionProbe(ctx, cfg, w.g, res)
}

// compactionProbe commits stationary toggles through Live.Apply on a
// fresh store with hdld's defaults (fsync on, snapshot every 1024) until
// one commit has compacted, and reports that commit's time. No workload
// commits 1024 times in its window: churn makes under 200 in 10 s.
func compactionProbe(ctx context.Context, cfg config, g *graph, res *result) error {
	prog, err := hypo.Parse(g.program())
	if err != nil {
		return err
	}
	s, err := openStack(ctx, filepath.Join(cfg.dir, "compact"), prog, stackConfig{poolSize: poolSize, cacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	defer s.close()
	gen := newChurnGen(g)
	for v := uint64(1); v <= snapshotEvery; v++ {
		e, assert := gen.next()
		muts, err := hypo.ParseMutations(mutation(op{edge: e, assert: assert}))
		if err != nil {
			return err
		}
		t0 := time.Now()
		ci, err := s.lv.Apply(muts)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if ci.Version != v || ci.Changed != 1 {
			return wrongf("compaction probe: acknowledged version %d changing %d facts, want version %d changing 1", ci.Version, ci.Changed, v)
		}
		if ci.Compacted != (v == snapshotEvery) {
			return fmt.Errorf("compaction probe: commit %d compacted=%v with a snapshot every %d", v, ci.Compacted, snapshotEvery)
		}
		if ci.Compacted {
			res.set("live.compact_commit_ms", ms(d))
		}
	}
	res.set("live.compactions", float64(s.mets.LiveCompactions.Value()))
	return nil
}

// newBare builds the depth-3 layer: a standalone engine over the program
// and a bare live.Store with fsync on.
func newBare(dir, src string) (*bareLayer, error) {
	prog, err := hypo.Parse(src)
	if err != nil {
		return nil, err
	}
	e, err := hypo.New(prog, hypo.Options{Metrics: metrics.NewSet("perfbench-bare")})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, _, err := live.Open(prog.AST(), live.Config{
		WALPath:       filepath.Join(dir, "wal.log"),
		SnapshotPath:  filepath.Join(dir, "snapshot.hdlsnap"),
		SnapshotEvery: snapshotEvery,
		Logger:        discardLog,
	})
	if err != nil {
		return nil, err
	}
	return &bareLayer{e: e, st: st, dir: dir}, nil
}
