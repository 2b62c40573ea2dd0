package hypo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hypodatalog/internal/metrics"
	"hypodatalog/internal/workload"
)

// raceEnabled is set by race_test.go when the race detector is on; its
// instrumentation allocates, so allocation counts are meaningless there.
var raceEnabled bool

// readOp is one kind of pool read, rendered to a comparable answer.
type readOp struct {
	name string
	want string
	run  func(context.Context, *Pool) (string, ReadInfo, error)
}

var readOps = []readOp{
	{"ask", "true", func(ctx context.Context, pl *Pool) (string, ReadInfo, error) {
		ok, info, err := pl.AskInfoCtx(ctx, "path(a, d)")
		return fmt.Sprint(ok), info, err
	}},
	{"askunder", "true", func(ctx context.Context, pl *Pool) (string, ReadInfo, error) {
		ok, info, err := pl.AskUnderInfoCtx(ctx, "path(d, a)", "edge(d, a)")
		return fmt.Sprint(ok), info, err
	}},
	{"query", "X=b|X=c|X=d", func(ctx context.Context, pl *Pool) (string, ReadInfo, error) {
		bs, info, err := pl.QueryInfoCtx(ctx, "path(a, X)")
		return bindingSet(bs), info, err
	}},
	{"explain", "path(a, d)", func(ctx context.Context, pl *Pool) (string, ReadInfo, error) {
		out, info, err := pl.ExplainCtx(ctx, "path(a, d)")
		// The proof tree's root line names the goal.
		root, _, _ := strings.Cut(out, "  [")
		return root, info, err
	}},
}

// TestPoolReadPaths runs every pool read kind with and without the answer
// cache, in both evaluation modes, and checks what each call reports: the
// answer, the data version, how the cache served it, the work it did and
// the metrics invariant. Explain never consults the cache.
func TestPoolReadPaths(t *testing.T) {
	const version = 7
	for _, mode := range []Mode{ModeUniform, ModeCascade} {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			for _, op := range readOps {
				t.Run(fmt.Sprintf("mode=%d/cache=%d/%s", mode, cacheBytes, op.name), func(t *testing.T) {
					mets := metrics.NewSet("read_paths_test")
					pl := cacheTestPool(t, Options{Mode: mode, CacheBytes: cacheBytes, PoolSize: 1, Metrics: mets})
					pl.SetProgram(pl.prog, version)
					for call := 0; call < 2; call++ {
						got, info, err := op.run(context.Background(), pl)
						if err != nil {
							t.Fatalf("call %d: %v", call, err)
						}
						if got != op.want {
							t.Fatalf("call %d answered %q, want %q", call, got, op.want)
						}
						if info.DataVersion != version {
							t.Errorf("call %d at data version %d, want %d", call, info.DataVersion, version)
						}
						want := CacheBypass
						if cacheBytes > 0 && op.name != "explain" {
							want = CacheMiss
							if call > 0 {
								want = CacheHit
							}
						}
						if info.Cache != want {
							t.Errorf("call %d served %v, want %v", call, info.Cache, want)
						}
						switch {
						case info.Cache == CacheHit && info.Stats.Goals != 0:
							t.Errorf("call %d: hit reported %d goals of work", call, info.Stats.Goals)
						case mode == ModeUniform && info.Cache != CacheHit && info.Stats.Goals == 0:
							t.Errorf("call %d: %v evaluation reported zero goals", call, info.Cache)
						}
					}
					started := mets.QueriesStarted.Value()
					ended := mets.QueriesSucceeded.Value() + mets.QueriesFailed.Value() + mets.QueriesCanceled.Value()
					if started != 2 || ended != started {
						t.Errorf("queries_started = %d, outcomes = %d; want 2 and 2", started, ended)
					}
				})
			}
		}
	}
}

// TestCascadeReadReportsDeltaWork checks that a cascade read's Stats
// count the bottom-up work of the PROVE_Δ provers: a closure miss
// materialises path and reports rounds, rule firings, join probes and
// derived atoms; the cache hit after it reports none.
func TestCascadeReadReportsDeltaWork(t *testing.T) {
	pl := cacheTestPool(t, Options{Mode: ModeCascade, CacheBytes: 1 << 20, PoolSize: 1})
	for call, want := range []CacheStatus{CacheMiss, CacheHit} {
		ok, info, err := pl.AskInfoCtx(context.Background(), "path(a, d)")
		if err != nil || !ok {
			t.Fatalf("call %d: ok=%v err=%v", call, ok, err)
		}
		if info.Cache != want {
			t.Fatalf("call %d served %v, want %v", call, info.Cache, want)
		}
		s := info.Stats
		work := []int64{s.DeltaRounds, s.RuleFires, s.JoinProbes, s.Derived}
		for i, n := range work {
			if want == CacheMiss && n == 0 {
				t.Errorf("call %d: Δ counter %d is zero on a miss: %+v", call, i, s)
			}
			if want == CacheHit && n != 0 {
				t.Errorf("call %d: Δ counter %d is %d on a hit: %+v", call, i, n, s)
			}
		}
	}
}

// TestPoolCacheHitAllocs pins the allocation cost of a cache hit: each
// read kind parses, compiles and keys its query, then serves the stored
// answer without leasing an engine.
func TestPoolCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	pl := cacheTestPool(t, Options{CacheBytes: 1 << 20, Metrics: metrics.NewSet("alloc_test")})
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		max  float64
		read func()
	}{
		{"ask", 16, func() { _, _, _ = pl.AskInfoCtx(ctx, "path(a, d)") }},
		{"askunder", 31, func() { _, _, _ = pl.AskUnderInfoCtx(ctx, "path(d, a)", "edge(d, a)") }},
		{"query", 19, func() { _, _, _ = pl.QueryInfoCtx(ctx, "path(a, X)") }},
	} {
		tc.read() // the miss that stores the answer
		if got := testing.AllocsPerRun(100, tc.read); got > tc.max {
			t.Errorf("%s cache hit: %v allocations, want at most %v", tc.name, got, tc.max)
		}
	}
}

// TestPoolExplainDeadline checks Explain honours its context for the
// whole proof search, on a uniform pool's leased engine and on the
// throwaway uniform engine a cascade pool builds for it. Tabling is off
// so the refutation cannot finish before the deadline.
func TestPoolExplainDeadline(t *testing.T) {
	src := workload.HamiltonianProgram(hardHamiltonian(t))
	for _, mode := range []Mode{ModeUniform, ModeCascade} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			pl, err := NewPool(mustParse(t, src), Options{Mode: mode, NoTabling: true, PoolSize: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			start := time.Now()
			go func() {
				_, _, err := pl.ExplainCtx(ctx, "yes")
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrDeadline) {
					t.Fatalf("ExplainCtx = %v, want ErrDeadline", err)
				}
				if elapsed := time.Since(start); elapsed >= 500*time.Millisecond {
					t.Errorf("abort took %v, want well under 500ms", elapsed)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("ExplainCtx still running 2s after a 50ms deadline")
			}
		})
	}
}
