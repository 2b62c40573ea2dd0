package server

// Tests for the one request path: the error table (status, kind,
// Retry-After and access-log outcome of every refusal), the
// X-Hdl-Min-Version gate against the version reads are served at, a fuzz
// target over the HTTP surface, and the handler-cost benchmark.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/vfs"
)

// errorKinds are the kinds an error body may carry.
var errorKinds = map[string]bool{
	"bad_request": true, "too_large": true, "deadline": true, "memory": true,
	"budget": true, "shed": true, "over_memory": true, "over_disk": true,
	"draining": true, "read_only": true, "stale": true, "not_enabled": true,
	"unknown_program": true, "primary_unreachable": true,
}

// lastRequestLog returns the last "request" access-log line in logs.
func lastRequestLog(tb testing.TB, logs string) map[string]any {
	tb.Helper()
	var last map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var entry map[string]any
		if json.Unmarshal([]byte(line), &entry) == nil && entry["msg"] == "request" {
			last = entry
		}
	}
	if last == nil {
		tb.Fatalf("no request log line:\n%s", logs)
	}
	return last
}

// errorKind parses an error response body, failing unless it is exactly
// {"error": {"kind": k, "message": ...}} with a known k.
func errorKind(tb testing.TB, body []byte) string {
	tb.Helper()
	var eb struct {
		Error *struct {
			Kind    string `json:"kind"`
			Message string `json:"message"`
		} `json:"error"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&eb); err != nil || eb.Error == nil || dec.More() {
		tb.Fatalf("error body is not {\"error\": {...}}: %q (%v)", body, err)
	}
	if !errorKinds[eb.Error.Kind] {
		tb.Fatalf("unknown error kind %q in %s", eb.Error.Kind, body)
	}
	return eb.Error.Kind
}

// liveServer builds a server over a live store of liveSrc: in a temp dir
// when fs is nil, else on fs.
func liveServer(tb testing.TB, fs vfs.FS, cfg Config) (*Server, *hypo.Live) {
	tb.Helper()
	prog, err := hypo.Parse(liveSrc)
	if err != nil {
		tb.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	lc := hypo.LiveConfig{WALPath: "/db/wal.log", SnapshotPath: "/db/db.snap", FS: fs, Logger: quiet}
	if fs == nil {
		dir := tb.TempDir()
		lc.WALPath, lc.SnapshotPath, lc.NoSync = dir+"/wal.log", dir+"/db.snap", true
	}
	lv, err := hypo.OpenLive(prog, lc, hypo.Options{PoolSize: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { lv.Close() })
	cfg.Pool, cfg.Live = lv.Pool(), lv
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s, lv
}

// staticServer builds a server over a bare pool of src.
func staticServer(tb testing.TB, src string, opts hypo.Options, cfg Config) *Server {
	tb.Helper()
	prog, err := hypo.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	if cfg.Pool, err = hypo.NewPool(prog, opts); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cfg.Pool.Close() })
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestErrorTable pins every refusal to its status and kind, checks that
// the access log's outcome equals the body's kind, and that Retry-After
// comes with every 429 and with every 503 except read_only.
func TestErrorTable(t *testing.T) {
	// Each case builds its own server in the state the refusal needs.
	static := func(src string, opts hypo.Options) func(*testing.T, Config) *Server {
		return func(t *testing.T, cfg Config) *Server { return staticServer(t, src, opts, cfg) }
	}
	uni := static(uniSrc, hypo.Options{})
	hard := static(hardSrc, hypo.Options{Mode: hypo.ModeUniform, NoTabling: true})
	closedPool := func(t *testing.T, cfg Config) *Server {
		s := uni(t, cfg)
		s.def.Pool().Close()
		return s
	}
	liveWith := func(prep func(*Server, *hypo.Live)) func(*testing.T, Config) *Server {
		return func(t *testing.T, cfg Config) *Server {
			s, lv := liveServer(t, nil, cfg)
			prep(s, lv)
			return s
		}
	}
	drained := liveWith(func(s *Server, _ *hypo.Live) { s.BeginDrain() })
	shed := func(t *testing.T, cfg Config) *Server {
		// One slot held, one waiter queued: the request finds the queue full.
		cfg.MaxConcurrent, cfg.MaxQueue = 1, 1
		cfg.Metrics = metrics.NewSet("test_error_table_shed")
		s := uni(t, cfg)
		release, err := s.def.Admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		waiter := make(chan struct{})
		go func() {
			defer close(waiter)
			if rel, err := s.def.Admit(ctx); err == nil {
				rel()
			}
		}()
		t.Cleanup(func() {
			cancel()
			<-waiter
			release()
		})
		waitGauge(t, cfg.Metrics.HTTPQueued.Value, 1, "queued waiters")
		return s
	}
	overMemory := func(t *testing.T, cfg Config) *Server {
		cfg.MemoryQuota = 1
		s := staticServer(t, uniSrc, hypo.Options{PoolSize: 1, CacheBytes: 1 << 20}, cfg)
		// Cache an answer no engine trim can drop: the footprint stays over.
		if _, _, err := s.def.Pool().QueryInfoCtx(context.Background(), "grad(S)"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	readOnly := func(t *testing.T, cfg Config) *Server {
		ft := vfs.NewFault(vfs.NewMem(), nil)
		s, _ := liveServer(t, ft, cfg)
		ft.SetScript(vfs.FailNth(vfs.OpSync, 1)) // every fsync fails from here on
		return s
	}

	const ask, fact = `{"query": "reach(a, b)"}`, `{"assert": ["edge(b, c)"]}`
	cases := []struct {
		name       string
		server     func(*testing.T, Config) *Server
		path, body string
		minVersion string
		status     int
		kind       string
	}{
		{"bad query", uni, "/v1/ask", `{"query": "grad("}`, "", 400, "bad_request"},
		{"add on query", uni, "/v1/query", `{"query": "grad(S)", "add": ["take(mary, eng201)"]}`, "", 400, "bad_request"},
		{"add on explain", uni, "/v1/explain", `{"query": "grad(tony)", "add": ["take(mary, eng201)"]}`, "", 400, "bad_request"},
		{"bad min version", uni, "/v1/ask", `{"query": "grad(tony)"}`, "x", 400, "bad_request"},
		{"too large", uni, "/v1/ask", `{"query": "` + strings.Repeat("x", 5000) + `"}`, "", 413, "too_large"},
		{"unknown program", uni, "/v1/programs/nope/ask", ask, "", 404, "unknown_program"},
		{"facts disabled", uni, "/v1/facts", `{"assert": ["take(mary, eng201)"]}`, "", 501, "not_enabled"},
		{"budget", static(hardSrc, hypo.Options{Mode: hypo.ModeUniform, MaxGoals: 100}), "/v1/ask", `{"query": "yes"}`, "", 422, "budget"},
		{"deadline ask", hard, "/v1/ask", `{"query": "yes", "timeout": "50ms"}`, "", 504, "deadline"},
		{"deadline query", hard, "/v1/query", `{"query": "yes", "timeout": "50ms"}`, "", 504, "deadline"},
		{"shed ask", shed, "/v1/ask", `{"query": "grad(tony)"}`, "", 429, "shed"},
		{"shed batch", shed, "/v1/batch", `{"queries": [{"query": "grad(tony)"}]}`, "", 429, "shed"},
		{"drain ask", drained, "/v1/ask", ask, "", 503, "draining"},
		{"drain batch", drained, "/v1/batch", `{"queries": [{"query": "reach(a, b)"}]}`, "", 503, "draining"},
		{"drain facts", drained, "/v1/facts", fact, "", 503, "draining"},
		{"closed pool ask", closedPool, "/v1/ask", `{"query": "grad(tony)"}`, "", 503, "draining"},
		{"closed pool query", closedPool, "/v1/query", `{"query": "grad(S)"}`, "", 503, "draining"},
		{"closed pool explain", closedPool, "/v1/explain", `{"query": "grad(tony)"}`, "", 503, "draining"},
		{"closed pool batch", closedPool, "/v1/batch", `{"queries": [{"query": "grad(tony)"}]}`, "", 503, "draining"},
		{"closed live store", liveWith(func(_ *Server, lv *hypo.Live) { lv.Close() }), "/v1/facts", fact, "", 503, "draining"},
		{"over memory", overMemory, "/v1/query", `{"query": "grad(S)"}`, "", 503, "over_memory"},
		{"over disk", liveWith(func(s *Server, _ *hypo.Live) { s.def.SetQuotas(0, 1) }), "/v1/facts", fact, "", 503, "over_disk"},
		{"stale", liveWith(func(*Server, *hypo.Live) {}), "/v1/ask", ask, "7", 503, "stale"},
		{"read only", readOnly, "/v1/facts", fact, "", 503, "read_only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logs syncBuffer
			s := tc.server(t, Config{
				Logger:         slog.New(slog.NewJSONHandler(&logs, nil)),
				MaxBodyBytes:   4096,
				MinVersionWait: 20 * time.Millisecond,
			})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			req, err := http.NewRequest(http.MethodPost, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.minVersion != "" {
				req.Header.Set("X-Hdl-Min-Version", tc.minVersion)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if kind := errorKind(t, body); kind != tc.kind {
				t.Errorf("kind %q, want %q", kind, tc.kind)
			}
			wantRetry := tc.status == 429 || tc.status == 503 && tc.kind != "read_only"
			if got := resp.Header.Get("Retry-After") != ""; got != wantRetry {
				t.Errorf("Retry-After present = %v, want %v", got, wantRetry)
			}
			entry := lastRequestLog(t, logs.String())
			if entry["outcome"] != tc.kind || entry["status"] != float64(tc.status) {
				t.Errorf("access log outcome %v status %v, want %s %d", entry["outcome"], entry["status"], tc.kind, tc.status)
			}
		})
	}
}

// TestMinVersionGateServesPoolVersion: a commit is visible in the store
// before the pool serves it. A read demanding the new version in that
// window must wait for the pool (and here, with no swap coming, be
// refused stale); it must never be answered at the old version.
func TestMinVersionGateServesPoolVersion(t *testing.T) {
	s, lv := liveServer(t, nil, Config{MinVersionWait: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ms, err := hypo.ParseMutations([]string{"edge(b, c)"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lv.Store().Commit(ms); err != nil {
		t.Fatal(err)
	}
	if lv.Store().Version() != 1 || lv.Pool().Version() != 0 {
		t.Fatalf("store at %d, pool at %d; want 1 and 0", lv.Store().Version(), lv.Pool().Version())
	}
	resp, body := askMin(t, ts.URL, "reach(a, b)", "1")
	switch resp.StatusCode {
	case http.StatusServiceUnavailable:
		if !strings.Contains(body, `"kind":"stale"`) || resp.Header.Get("X-Hdl-Version") != "0" {
			t.Fatalf("refusal: X-Hdl-Version=%q body %s", resp.Header.Get("X-Hdl-Version"), body)
		}
	case http.StatusOK:
		var ar askResponse
		if err := json.Unmarshal([]byte(body), &ar); err != nil || ar.DataVersion < 1 {
			t.Fatalf("answered below the demanded version 1: %s", body)
		}
	default:
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// healthz reports the version reads are served at.
	if hb := get(t, ts.Client(), ts.URL+"/healthz"); !strings.Contains(hb, `"dataVersion":0`) {
		t.Errorf("healthz: %s", hb)
	}
}

// lastLine is a log sink that keeps only the most recent line (slog
// handlers write one record per Write call).
type lastLine struct {
	mu   sync.Mutex
	line []byte
}

func (l *lastLine) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.line = append(l.line[:0], p...)
	return len(p), nil
}

func (l *lastLine) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.line)
}

// FuzzServe posts arbitrary bodies to every evaluating endpoint of a
// live server. No request may end in a 500; every refusal is an
// {"error": {"kind": k}} body with a known k that the access log records
// as the outcome; a 200 /v1/query stream ends in exactly one done or
// error line.
func FuzzServe(f *testing.F) {
	for _, body := range []string{
		`{"query":`, `{"quer": "grad(tony)"}`, `{"query": "grad("}`, `{"query": "grad(nobody)"}`,
		`{"query": "grad(S)"}`, `{"query": "grad(tony)", "timeout": "soon"}`,
		`{"query": "grad(tony)", "add": ["take(mary, his101)"]}`,
		`{"query": "grad(mary)", "add": ["take(mary, C)"]}`,
		`{"query": "` + strings.Repeat("x", 600) + `"}`, `{"queries": []}`, `{"query": "???"}`,
		`{"query": "reach(a, Y)"}`, `{"query": "reach(a, c)", "add": ["edge(b, c)"], "timeout": "1ns"}`,
		`{"queries": [{"kind": "query", "query": "reach(X, Y)"}, {"query": "light(on)"}]}`,
		`{"assert": ["edge(b, c)"], "retract": ["flag(off)"]}`, `{"assert": ["reach(a, a)"]}`,
	} {
		f.Add([]byte(body))
	}
	var log lastLine
	s, _ := liveServer(f, nil, Config{Logger: slog.New(slog.NewJSONHandler(&log, nil)), MaxBodyBytes: 512})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range []string{"ask", "askunder", "query", "explain", "batch", "facts"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+ep, bytes.NewReader(body)))
			entry := lastRequestLog(t, log.String())
			out := rec.Body.Bytes()
			switch {
			case rec.Code == http.StatusInternalServerError:
				t.Fatalf("%s: 500 for %q: %s", ep, body, out)
			case rec.Code != http.StatusOK:
				if kind := errorKind(t, out); entry["outcome"] != kind {
					t.Fatalf("%s: outcome %v, body kind %q", ep, entry["outcome"], kind)
				}
			case ep == "query":
				checkStream(t, out, entry)
			case entry["outcome"] != "ok":
				t.Fatalf("%s: 200 logged as %v", ep, entry["outcome"])
			}
		}
	})
}

// checkStream asserts a 200 NDJSON body is binding lines followed by
// exactly one done or error line, and that an error line's kind is the
// logged outcome.
func checkStream(t *testing.T, out []byte, entry map[string]any) {
	t.Helper()
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) == 0 {
		t.Fatal("empty query stream")
	}
	for _, l := range lines[:len(lines)-1] {
		if !bytes.HasPrefix(l, []byte(`{"binding":`)) {
			t.Fatalf("non-binding line before the end: %s", out)
		}
	}
	switch last := lines[len(lines)-1]; {
	case bytes.HasPrefix(last, []byte(`{"done":true`)):
		if entry["outcome"] != "ok" {
			t.Fatalf("done stream logged as %v", entry["outcome"])
		}
	case bytes.HasPrefix(last, []byte(`{"error":`)):
		if kind := errorKind(t, last); entry["outcome"] != kind {
			t.Fatalf("in-band %q logged as %v", kind, entry["outcome"])
		}
	default:
		t.Fatalf("stream ends in neither a done nor an error line: %s", out)
	}
}

// BenchmarkAskCacheHit measures the handler cost of a cache-hit
// POST /v1/ask in process, with the JSON access log written to
// io.Discard: decode, admission, cache lookup, encode and the log line.
func BenchmarkAskCacheHit(b *testing.B) {
	s := staticServer(b, uniSrc, hypo.Options{CacheBytes: 1 << 20}, Config{
		Logger:  slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Metrics: metrics.NewSet("bench_ask_cache_hit"),
	})
	h := s.Handler()
	body := []byte(`{"query": "grad(tony)"}`)
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ask", bytes.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != 200 || rec.Header().Get("X-Hdl-Cache") != "miss" {
		b.Fatalf("warm-up: %d %v", rec.Code, rec.Header())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Code != 200 || rec.Header().Get("X-Hdl-Cache") != "hit" {
			b.Fatalf("%d %v", rec.Code, rec.Header())
		}
	}
}
