package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/live"
	"hypodatalog/internal/metrics"
	"hypodatalog/internal/server"
)

// opKind is one operation of the serving workloads.
type opKind uint8

const (
	opAsk    opKind = iota // POST /v1/ask       reach(vx, vy)
	opQuery                // POST /v1/query     reach(vx, Y)
	opWhatIf               // POST /v1/askunder  reach(vx, vy) with edge added
	opCommit               // POST /v1/facts     toggle edge
	numOpKinds
)

var opNames = [numOpKinds]string{"ask", "query", "askunder", "facts"}

type op struct {
	kind   opKind
	x, y   int
	edge   [2]int // added edge (opWhatIf), toggled edge (opCommit)
	assert bool   // opCommit: assert when true, retract when false
	id     int64  // span id in the traced window, sent as X-Bench-Op; 0 = untraced
}

func (o op) query() string {
	if o.kind == opQuery {
		return fmt.Sprintf("reach(v%d, Y)", o.x)
	}
	return fmt.Sprintf("reach(v%d, v%d)", o.x, o.y)
}

func (o op) String() string {
	switch o.kind {
	case opWhatIf:
		return fmt.Sprintf("askunder %s add %s", o.query(), edgeAtom(o.edge))
	case opCommit:
		if o.assert {
			return "facts assert " + edgeAtom(o.edge)
		}
		return "facts retract " + edgeAtom(o.edge)
	}
	return opNames[o.kind] + " " + o.query()
}

// answer is what one layer returned for an op.
type answer struct {
	ok      bool   // ask, askunder
	set     uint64 // query: the bound Y values as a node set
	version uint64 // dataVersion of a read; new version of a commit
	changed int    // commit
	hit     bool   // the pool served the read without running an engine
}

// statusError is a non-2xx response. It counts as a failed op, not as a
// wrong answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// versions maps each data version the benchmark has produced to its
// model graph, so an answer is checked at the version its response
// echoes.
type versions struct {
	mu sync.RWMutex
	at map[uint64]*graph
}

func newVersions(g *graph) *versions {
	return &versions{at: map[uint64]*graph{0: g.clone()}}
}

func (v *versions) put(ver uint64, g *graph) {
	v.mu.Lock()
	v.at[ver] = g.clone()
	v.mu.Unlock()
}

func (v *versions) drop(ver uint64) {
	v.mu.Lock()
	delete(v.at, ver)
	v.mu.Unlock()
}

// check compares a read's answer with the model at the answer's data
// version.
func (v *versions) check(o op, a answer) error {
	v.mu.RLock()
	g := v.at[a.version]
	v.mu.RUnlock()
	if g == nil {
		return wrongf("%s: dataVersion %d was never committed", o, a.version)
	}
	switch o.kind {
	case opAsk, opWhatIf:
		var add *[2]int
		if o.kind == opWhatIf {
			add = &o.edge
		}
		if want := g.reaches(o.x, o.y, add); a.ok != want {
			return wrongf("%s at dataVersion %d: got %v, want %v", o, a.version, a.ok, want)
		}
	case opQuery:
		if want := g.reachFrom(o.x, nil); a.set != want {
			return wrongf("%s at dataVersion %d: got Y in %v, want %v", o, a.version, nodeSet(a.set), nodeSet(want))
		}
	}
	return nil
}

// layer runs ops at one entry depth of the serving stack.
type layer interface {
	do(ctx context.Context, o op) (answer, error)
}

// request encodes an op as the HTTP request hdld clients send.
func request(ctx context.Context, base string, o op) *http.Request {
	var path string
	var body any
	switch o.kind {
	case opAsk:
		return askRequest(ctx, base, o.query(), "", o.id)
	case opWhatIf:
		return askRequest(ctx, base, o.query(), edgeAtom(o.edge), o.id)
	case opQuery:
		path, body = "/v1/query", map[string]any{"query": o.query()}
	case opCommit:
		key := "retract"
		if o.assert {
			key = "assert"
		}
		path, body = "/v1/facts", map[string]any{key: []string{edgeAtom(o.edge)}}
	}
	return post(ctx, base+path, body, o.id)
}

// askRequest is /v1/ask, or /v1/askunder when add is set.
func askRequest(ctx context.Context, base, query, add string, id int64) *http.Request {
	if add == "" {
		return post(ctx, base+"/v1/ask", map[string]any{"query": query}, id)
	}
	return post(ctx, base+"/v1/askunder", map[string]any{"query": query, "add": []string{add}}, id)
}

func post(ctx context.Context, url string, body any, id int64) *http.Request {
	buf, _ := json.Marshal(body) // maps of strings always marshal
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set("X-Bench-Op", strconv.FormatInt(id, 10))
	}
	return req
}

// decode parses the response to an op.
func decode(o op, status int, header http.Header, body io.Reader) (answer, error) {
	if status/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(body, 512))
		return answer{}, &statusError{code: status, body: strings.TrimSpace(string(b))}
	}
	cs := header.Get("X-Hdl-Cache")
	a := answer{hit: cs == "hit" || cs == "coalesced"}
	switch o.kind {
	case opAsk, opWhatIf:
		var r struct {
			Result      bool   `json:"result"`
			DataVersion uint64 `json:"dataVersion"`
		}
		if err := json.NewDecoder(body).Decode(&r); err != nil {
			return a, fmt.Errorf("%s: decode: %w", o, err)
		}
		a.ok, a.version = r.Result, r.DataVersion
	case opCommit:
		var r struct {
			Version uint64 `json:"version"`
			Changed int    `json:"changed"`
		}
		if err := json.NewDecoder(body).Decode(&r); err != nil {
			return a, fmt.Errorf("%s: decode: %w", o, err)
		}
		a.version, a.changed = r.Version, r.Changed
	case opQuery:
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			var line struct {
				Binding     map[string]string `json:"binding"`
				Done        bool              `json:"done"`
				DataVersion uint64            `json:"dataVersion"`
				Error       *struct{ Kind string }
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return a, fmt.Errorf("%s: decode: %w", o, err)
			}
			switch {
			case line.Error != nil:
				return a, &statusError{code: status, body: "in-band error " + line.Error.Kind}
			case line.Done:
				a.version = line.DataVersion
				return a, nil
			default:
				y, err := node(line.Binding["Y"])
				if err != nil {
					return a, fmt.Errorf("%s: %w", o, err)
				}
				a.set |= 1 << uint(y)
			}
		}
		if err := sc.Err(); err != nil {
			return a, fmt.Errorf("%s: read: %w", o, err)
		}
		return a, fmt.Errorf("%s: stream ended without a done line", o)
	}
	return a, nil
}

// httpLayer is depth 0: loopback HTTP through a real listener, one
// keep-alive connection per client.
type httpLayer struct {
	client *http.Client
	base   string
}

func newHTTPLayer(base string) *httpLayer {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpLayer{client: &http.Client{Transport: tr}, base: base}
}

func (l *httpLayer) do(ctx context.Context, o op) (answer, error) {
	resp, err := l.client.Do(request(ctx, l.base, o))
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	a, err := decode(o, resp.StatusCode, resp.Header, resp.Body)
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	return a, err
}

func (l *httpLayer) close() { l.client.CloseIdleConnections() }

// handlerLayer is depth 1: the server's Handler().ServeHTTP in process,
// skipping only the transport.
type handlerLayer struct{ h http.Handler }

func (l handlerLayer) do(ctx context.Context, o op) (answer, error) {
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, request(ctx, "http://bench", o))
	return decode(o, rec.Code, rec.Header(), rec.Body)
}

// poolLayer is depth 2: the hypo Pool read methods and Live.Apply.
type poolLayer struct {
	pl *hypo.Pool
	lv *hypo.Live
}

func (l poolLayer) do(ctx context.Context, o op) (answer, error) {
	var a answer
	var info hypo.ReadInfo
	var err error
	switch o.kind {
	case opAsk:
		a.ok, info, err = l.pl.AskInfoCtx(ctx, o.query())
	case opWhatIf:
		a.ok, info, err = l.pl.AskUnderInfoCtx(ctx, o.query(), edgeAtom(o.edge))
	case opQuery:
		var bs []hypo.Binding
		if bs, info, err = l.pl.QueryInfoCtx(ctx, o.query()); err == nil {
			a.set, err = bindingSet(bs)
		}
	case opCommit:
		ms, perr := hypo.ParseMutations(mutation(o))
		if perr != nil {
			return a, perr
		}
		ci, cerr := l.lv.Apply(ms)
		return answer{version: ci.Version, changed: ci.Changed}, cerr
	}
	a.version, a.hit = info.DataVersion, info.Cache == hypo.CacheHit || info.Cache == hypo.CacheCoalesced
	return a, err
}

// bindingSet is the set of Y values of reach(x, Y) bindings.
func bindingSet(bs []hypo.Binding) (uint64, error) {
	var set uint64
	for _, b := range bs {
		y, err := node(b["Y"])
		if err != nil {
			return 0, err
		}
		set |= 1 << uint(y)
	}
	return set, nil
}

func mutation(o op) (asserts, retracts []string) {
	if o.assert {
		return []string{edgeAtom(o.edge)}, nil
	}
	return nil, []string{edgeAtom(o.edge)}
}

// bareLayer is depth 3: the calls below the pool. Reads go to a
// standalone hypo.Engine (no pool, no cache) that follows the commit
// stream through Engine.ApplyDelta; commits go to a bare live.Store with
// fsync on. The two commit halves are timed apart.
type bareLayer struct {
	e       *hypo.Engine
	st      *live.Store
	dir     string
	version uint64

	applyDelta, storeCommit []time.Duration
}

func (l *bareLayer) walBytes() int64 {
	fi, err := os.Stat(filepath.Join(l.dir, "wal.log"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (l *bareLayer) close() error {
	return errors.Join(l.st.Close(), os.RemoveAll(l.dir))
}

func (l *bareLayer) do(ctx context.Context, o op) (answer, error) {
	a := answer{version: l.version}
	var err error
	switch o.kind {
	case opAsk:
		a.ok, err = l.e.AskCtx(ctx, o.query())
	case opWhatIf:
		a.ok, err = l.e.AskUnderCtx(ctx, o.query(), edgeAtom(o.edge))
	case opQuery:
		var bs []hypo.Binding
		if bs, err = l.e.QueryCtx(ctx, o.query()); err == nil {
			a.set, err = bindingSet(bs)
		}
	case opCommit:
		ms, perr := hypo.ParseMutations(mutation(o))
		if perr != nil {
			return a, perr
		}
		t0 := time.Now()
		ci, cerr := l.st.Commit(ms)
		t1 := time.Now()
		if cerr != nil {
			return a, cerr
		}
		if err := l.e.ApplyDelta(mutation(o)); err != nil {
			return a, err
		}
		l.storeCommit = append(l.storeCommit, t1.Sub(t0))
		l.applyDelta = append(l.applyDelta, time.Since(t1))
		l.version = ci.Version
		return answer{version: ci.Version, changed: ci.Changed}, nil
	}
	return a, err
}

// stackConfig is how one serving stack is built, mirroring hdld's flags.
// Every stack has a live EDB with hdld's defaults: a WAL with fsync on
// and a snapshot every snapshotEvery commits.
type stackConfig struct {
	poolSize   int
	cacheBytes int64 // -cache-bytes
	listen     bool  // serve on a loopback listener

	// wrap, when set, wraps the server's handler on the listener (the
	// traced window's span recorder).
	wrap func(http.Handler) http.Handler
}

// stack is one hdld-shaped serving instance built in process:
// internal/server over hypo.OpenLive, its access log in JSON to
// io.Discard as with hdld's default -log json.
type stack struct {
	dir  string
	mets *metrics.Set
	pl   *hypo.Pool
	lv   *hypo.Live
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
	base string
}

var discardLog = slog.New(slog.NewJSONHandler(io.Discard, nil))

func openStack(ctx context.Context, dir string, prog *hypo.Program, cfg stackConfig) (*stack, error) {
	s := &stack{dir: dir, mets: metrics.NewSet("perfbench")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	s.lv, err = hypo.OpenLive(prog, hypo.LiveConfig{
		WALPath:       filepath.Join(dir, "wal.log"),
		SnapshotPath:  filepath.Join(dir, "snapshot.hdlsnap"),
		SnapshotEvery: snapshotEvery,
		Logger:        discardLog,
	}, hypo.Options{PoolSize: cfg.poolSize, CacheBytes: cfg.cacheBytes, Metrics: s.mets})
	if err != nil {
		return nil, fmt.Errorf("open live store: %w", err)
	}
	s.pl = s.lv.Pool()
	s.srv, err = server.New(server.Config{Pool: s.pl, Live: s.lv, Logger: discardLog, Metrics: s.mets})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("build server: %w", err)
	}
	if cfg.listen {
		ln, err := (&net.ListenConfig{}).Listen(ctx, "tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		h := s.srv.Handler()
		if cfg.wrap != nil {
			h = cfg.wrap(h)
		}
		s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		s.base = "http://" + ln.Addr().String()
		s.done = make(chan struct{})
		go func() {
			defer close(s.done)
			_ = s.hs.Serve(ln) // returns ErrServerClosed after close
		}()
	}
	return s, nil
}

func (s *stack) close() error {
	var errs []error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.hs.Shutdown(ctx))
		cancel()
		<-s.done
	}
	if s.lv != nil {
		errs = append(errs, s.lv.Close())
	}
	return errors.Join(append(errs, os.RemoveAll(s.dir))...)
}
