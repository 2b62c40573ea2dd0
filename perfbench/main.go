// Command perfbench is the repository's benchmark. It drives the
// hypothetical-Datalog system only from outside, through loopback HTTP to
// an hdld-shaped internal/server built in this process and through the
// public functions of hypodatalog and its internal layers, checks every
// answer against its own model, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload read-warm --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	read-warm  warm HTTP reads, answer cache on: the serving stack's cost
//	churn      HTTP reads plus 10% fsynced edge toggles: commit + catch-up
//	cold-eval  library calls on fresh engines: evaluation is all the work
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics: the run
// measures half its window untraced and half traced (the difference is
// the tracing overhead), then replays an op stream once at each entry
// depth (loopback HTTP, Handler().ServeHTTP, the hypo Pool/Live call,
// the bare layer call) and takes each layer's self time as the
// difference between adjacent depths. Spans are kept in memory and
// written to .bench_build/trace/ as gzipped JSON lines when the run ends.
package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median of all but the first setupWarm, which a fresh process runs
// slower while it faults in its heap.
const (
	setupRuns = 18
	setupWarm = 3
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	dir      string // scratch directory inside the checkout
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
}

func (r *result) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]float64{}
	}
	r.metrics[name] = v
}

// errWrong marks a wrong answer: the run aborts and reports correct=false.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, config) (*result, error){
	"read-warm": runReadWarm,
	"churn":     runChurn,
	"cold-eval": runColdEval,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "read-warm | churn | cold-eval")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	fn, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload read-warm|churn|cold-eval --seed n --seconds s --trace 0|1")
		return 2
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: self-test:", err)
		return 1
	}
	err := os.MkdirAll(".bench_build", 0o755)
	if err == nil {
		cfg.dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := fn(context.Background(), cfg)
	if rerr := os.RemoveAll(cfg.dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		if errors.Is(err, errWrong) {
			printResult(false, &result{attempted: 1, failed: 1}, nil)
		}
		return 1
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	for _, m := range names {
		if v, ok := res.metrics[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, m.name)
			return 1
		}
	}
	for _, m := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.4f %s\n", m.name, res.metrics[m.name], m.unit)
	}
	printResult(true, res, names)
	return 0
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints; every workload
// measures each of them (see BENCHMARK.json).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_us", "us"},
	{"read_ops_s", "1/s"},
	{"mem_live_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run prints.
var perLayer = []metricDef{
	{"read_p99_us", "us"},
	{"commit_p50_us", "us"},
	{"commit_p99_us", "us"},
	{"cold_closure_p50_ms", "ms"},
	{"cold_demand_p50_ms", "ms"},
	{"cold_search_p50_ms", "ms"},
	{"whatif_p50_ms", "ms"},
	{"fail_frac", "ratio"},
	{"mem_peak_mb", "MB"},
	{"server.transport_us", "us"},
	{"server.handler_us", "us"},
	{"server.shed", "count"},
	{"pool.read_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.carried", "count"},
	{"cache.evictions", "count"},
	{"catchup.apply_delta_us", "us"},
	{"catchup.incremental", "count"},
	{"catchup.fallbacks", "count"},
	{"catchup.rebuilds", "count"},
	{"catchup.substrate_builds", "count"},
	{"pool.news", "count"},
	{"live.apply_us", "us"},
	{"live.store_commit_us", "us"},
	{"live.validate_swap_us", "us"},
	{"live.wal_bytes_per_mutation", "bytes"},
	{"live.compactions", "count"},
	{"live.compact_commit_ms", "ms"},
	{"engine.build_ms", "ms"},
	{"engine.ask_ms", "ms"},
	{"delta.materialise_ms", "ms"},
	{"delta.materialisations", "count"},
	{"sigma.goals", "count"},
	{"sigma.table_hits", "count"},
	{"readinfo.goals", "count"},
	{"magic.transform_us", "us"},
	{"magic.transforms", "count"},
	{"magic.fallbacks", "count"},
	{"front.parse_ms", "ms"},
	{"front.stratify_ms", "ms"},
	{"trace.overhead_read_p50_us", "us"},
	{"trace.overhead_read_ops_pct", "%"},
	{"trace.spans", "count"},
}

// printResult prints the result line with the named metrics.
func printResult(correct bool, r *result, names []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range names {
		out.Metrics[m.name] = value{r.metrics[m.name], m.unit}
	}
	b, _ := json.Marshal(out) // plain structs and maps always marshal
	fmt.Println(string(b))
}

// quantile is the nearest-rank q-quantile of the samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func usAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// hist is a log-bucketed latency histogram. Its memory is constant
// whatever the op rate, so the benchmark's own samples do not move the
// memory metrics. Buckets are 0.2% wide; quantiles interpolate within one.
type hist struct {
	counts []uint32
	n      int64
}

const (
	histMin  = 0.1   // µs, the lower edge of bucket 0
	histStep = 1.002 // bucket i spans histMin*histStep^[i, i+1)
	histLen  = 10400 // up to about 100 s
)

func newHist() *hist { return &hist{counts: make([]uint32, histLen)} }

func (h *hist) add(d time.Duration) {
	i := 0
	if u := us(d); u > histMin {
		i = min(int(math.Log(u/histMin)/math.Log(histStep)), histLen-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the q-quantile in µs.
func (h *hist) quantile(q float64) float64 {
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c > 0 && cum+float64(c) >= rank {
			return histMin * math.Pow(histStep, float64(i)+(rank-cum)/float64(c))
		}
		cum += float64(c)
	}
	return math.NaN()
}

// liveHeapMB collects garbage and returns the live heap in MB: the state
// the system under test retains, measured while it is still open.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / 1e6
}

// memPeak samples the Go heap's live bytes, as the last garbage
// collection marked them, until stopped; the peak is mem_peak_mb. Live
// bytes are what the system retains; total heap in use also holds
// garbage awaiting collection, whose peak depends on collection timing.
type memPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			m.peak = max(m.peak, sample[0].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// end stops the sampler and returns the peak in MB.
func (m *memPeak) end() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / 1e6
}

// tracer keeps spans in memory; writeTo saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent names the enclosing span (in a depth replay, the next-shallower
// entry point the same op was replayed at).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name, parent string, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, op, parent, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// writeTo saves the spans as gzipped JSON lines.
func (t *tracer) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTest proves the answer checker rejects planted wrong answers; a
// benchmark whose checker accepted anything would measure nothing.
func selfTest() error {
	g := newSpine(8)
	g.set([2]int{5, 2}, true)
	v := newVersions(g)
	good := []struct {
		o op
		a answer
	}{
		{op{kind: opAsk, x: 0, y: 7}, answer{ok: true}},
		{op{kind: opAsk, x: 7, y: 0}, answer{ok: false}},
		{op{kind: opQuery, x: 6}, answer{set: 1 << 7}},
		{op{kind: opQuery, x: 3}, answer{set: 0b11111100}},
		{op{kind: opWhatIf, x: 7, y: 0, edge: [2]int{7, 0}}, answer{ok: true}},
	}
	for _, c := range good {
		if err := v.check(c.o, c.a); err != nil {
			return fmt.Errorf("checker rejects a right answer: %v", err)
		}
		bad := c.a
		if c.o.kind == opQuery {
			bad.set ^= 1 << 1
		} else {
			bad.ok = !bad.ok
		}
		if v.check(c.o, bad) == nil {
			return fmt.Errorf("checker accepts a planted wrong answer to %s", c.o)
		}
		bad = c.a
		bad.version = 9
		if v.check(c.o, bad) == nil {
			return fmt.Errorf("checker accepts an answer at an unknown version for %s", c.o)
		}
	}
	return nil
}
