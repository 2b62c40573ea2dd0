package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	hypo "hypodatalog"
	"hypodatalog/internal/live"
	"hypodatalog/internal/tenant"
	"hypodatalog/internal/topdown"
)

// errClientWrite marks a failed write to the response stream: the client
// went away mid-stream. It is logged as 499, never sent.
var errClientWrite = errors.New("server: client write failed")

// readRequest is the body of every read endpoint: /v1/ask,
// /v1/askunder, /v1/query and /v1/explain. Add (hypothetical facts) is
// for /v1/askunder only. Timeout is a Go duration string ("250ms", "2s")
// bounding evaluation; it is clamped to Config.MaxTimeout and defaults
// to Config.DefaultTimeout.
type readRequest struct {
	Query   string   `json:"query"`
	Add     []string `json:"add,omitempty"`
	Timeout string   `json:"timeout,omitempty"`
}

type askResponse struct {
	Result bool `json:"result"`
	// DataVersion is the base-EDB version the query evaluated at (always
	// 0 for a server without a live store).
	DataVersion uint64 `json:"dataVersion"`
}

// explainResponse carries the rendered proof tree. Provable false means
// the query has no derivation at this data version; Proof is then "".
type explainResponse struct {
	Provable    bool   `json:"provable"`
	Proof       string `json:"proof,omitempty"`
	DataVersion uint64 `json:"dataVersion"`
}

// The NDJSON lines of a /v1/query response: zero or more binding lines,
// then exactly one done or error line.
type bindingLine struct {
	Binding hypo.Binding `json:"binding"`
}

type doneLine struct {
	Done        bool   `json:"done"`
	Count       int    `json:"count"`
	DataVersion uint64 `json:"dataVersion"`
}

type errorLine struct {
	Error errorBody `json:"error"`
}

// batchRequest is the body of /v1/batch: many queries evaluated on one
// engine lease, in order. Kind selects the operation: "ask" (default),
// "query", or "askunder" (which uses Add).
type batchRequest struct {
	Queries []batchItem `json:"queries"`
	Timeout string      `json:"timeout,omitempty"`
}

type batchItem struct {
	Kind  string   `json:"kind,omitempty"`
	Query string   `json:"query"`
	Add   []string `json:"add,omitempty"`
}

// batchResult is one per-item outcome: exactly one of Result (ask,
// askunder), Bindings (query) or Error is set. Item errors do not fail
// the batch — except evaluation aborts (deadline, cancellation), which
// stop it and mark the remaining items with kind "skipped".
type batchResult struct {
	Result   *bool          `json:"result,omitempty"`
	Bindings []hypo.Binding `json:"bindings,omitempty"`
	Error    *errorBody     `json:"error,omitempty"`
}

type batchResponse struct {
	Results     []batchResult `json:"results"`
	DataVersion uint64        `json:"dataVersion"`
}

// factsRequest is the body of /v1/facts: a transactional mutation batch
// against the base EDB. Asserts apply before retracts within the batch;
// the whole batch is one new data version or nothing.
type factsRequest struct {
	Assert  []string `json:"assert,omitempty"`
	Retract []string `json:"retract,omitempty"`
}

// factsResponse acknowledges a committed batch. By the time the client
// reads it, the commit is fsynced to the WAL and every subsequently
// admitted query evaluates at Version or later.
type factsResponse struct {
	Version uint64 `json:"version"`
	// Changed counts the mutations that altered the fact set (asserting a
	// present fact or retracting an absent one is a committed no-op).
	Changed int `json:"changed"`
}

type errorBody struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// reject writes the error response {"error": {"kind", "message"}} and
// records kind as the request's access-log outcome, so the log and the
// body cannot disagree. Once the response has begun (a /v1/query stream
// past its first binding) the error goes in-band, as the stream's last
// line. Status 499 (the client is gone) writes nothing.
func reject(w http.ResponseWriter, ri *reqInfo, status int, kind, msg string) {
	ri.outcome = kind
	if status == statusClientClosed {
		ri.status = status
		return
	}
	if sw, ok := w.(*statusWriter); !ok || !sw.wrote {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
	}
	_ = json.NewEncoder(w).Encode(errorLine{Error: errorBody{Kind: kind, Message: msg}})
}

// classify is the server's one error table. It maps an evaluation abort,
// an admission refusal or a live-store error to its HTTP status, error
// kind and message (a fixed one, or err's text), and reports whether the
// response carries Retry-After: every 429, and every 503 a client should
// retry here. Status 499 means the client is gone.
func classify(err error) (status int, kind, msg string, retry bool) {
	msg = err.Error()
	switch {
	case errors.Is(err, errClientWrite), errors.Is(err, hypo.ErrCanceled),
		errors.Is(err, context.Canceled):
		return statusClientClosed, "canceled", msg, false
	case errors.Is(err, hypo.ErrDeadline):
		return http.StatusGatewayTimeout, "deadline", msg, false
	case errors.Is(err, context.DeadlineExceeded): // Admit's bare ctx error
		return http.StatusGatewayTimeout, "deadline", "request deadline expired while waiting for an evaluation slot", false
	case errors.Is(err, hypo.ErrMemory):
		return http.StatusUnprocessableEntity, "memory", msg, false
	case errors.Is(err, hypo.ErrBudget):
		return http.StatusUnprocessableEntity, "budget", msg, false
	case errors.Is(err, tenant.ErrShed):
		return http.StatusTooManyRequests, "shed", "program at capacity: evaluation slots and admission queue are full", true
	case errors.Is(err, tenant.ErrOverMemory):
		return http.StatusServiceUnavailable, "over_memory", "program over its memory quota: " + msg, true
	case errors.Is(err, tenant.ErrOverDisk):
		// Disk quota gates only the write path: reads keep working, so the
		// client should retract or wait for compaction, then retry.
		return http.StatusServiceUnavailable, "over_disk", msg, true
	case errors.Is(err, tenant.ErrDraining), errors.Is(err, tenant.ErrClosed),
		errors.Is(err, hypo.ErrPoolClosed):
		return http.StatusServiceUnavailable, "draining", "server is draining", true
	case errors.Is(err, live.ErrClosed):
		return http.StatusServiceUnavailable, "draining", "live store is closed", true
	case errors.Is(err, live.ErrReadOnly):
		// A degraded store refuses writes but keeps serving reads; the kind
		// lets clients fail over their write path without abandoning this
		// node for queries. Retrying here will not help.
		return http.StatusServiceUnavailable, "read_only", msg, false
	}
	return http.StatusBadRequest, "bad_request", msg, false
}

// fail answers err through the error table, folding an abort's partial
// work snapshot into the access log.
func fail(w http.ResponseWriter, ri *reqInfo, err error) {
	var ae *hypo.AbortError
	if errors.As(err, &ae) && ri.stats == (hypo.Stats{}) {
		ri.stats = ae.Stats
	}
	status, kind, msg, retry := classify(err)
	if retry {
		w.Header().Set("Retry-After", retryAfter)
	}
	reject(w, ri, status, kind, msg)
}

// decode reads the size-capped JSON body into v, answering 413 for an
// over-long body and 400 for anything else malformed.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, ri *reqInfo, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			reject(w, ri, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		} else {
			reject(w, ri, http.StatusBadRequest, "bad_request", "malformed request: "+err.Error())
		}
		return false
	}
	return true
}

// admit is the prologue of every evaluating request: it resolves the
// deadline (the "timeout" field, else the default, clamped to the max),
// gates on X-Hdl-Min-Version, then reserves an evaluation slot on the
// tenant's admission quota. On success the caller must call done, which
// releases the slot and the deadline; on failure the response is written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant, timeout string) (ctx context.Context, done func(), ok bool) {
	d := s.cfg.DefaultTimeout
	if timeout != "" {
		var err error
		if d, err = time.ParseDuration(timeout); err == nil && d <= 0 {
			err = errors.New("must be positive")
		}
		if err != nil {
			reject(w, ri, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad timeout %q: %v", timeout, err))
			return nil, nil, false
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), min(d, s.cfg.MaxTimeout))
	if !s.gateMinVersion(ctx, w, r, ri, t) {
		cancel()
		return nil, nil, false
	}
	release, err := t.Admit(ctx)
	if err != nil {
		cancel()
		fail(w, ri, err)
		return nil, nil, false
	}
	return ctx, func() { release(); cancel() }, true
}

// handleRead serves the read endpoints — /v1/ask, /v1/askunder,
// /v1/query and /v1/explain — as one premise evaluated over a
// hypothetical state: decode, admit, one pool read, answer. The pool's
// read methods put the answer cache above the engine lease, so a hit or
// coalesced read takes an admission slot (it is HTTP work) but no
// engine. An ask with no adds goes through AskInfoCtx, so its cache key
// is the plain ask's.
//
// /v1/query streams NDJSON: one {"binding": {...}} line per answer as it
// is proved, then a terminal {"done": true, "count": n} line. The
// headers go out before the first binding; an error after it is
// reported in-band as the terminal line, one before it with a proper
// HTTP status.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) {
	var req readRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	ri.query = req.Query
	if len(req.Add) > 0 && ri.endpoint != "askunder" {
		reject(w, ri, http.StatusBadRequest, "bad_request", `"add" is for /v1/askunder`)
		return
	}
	ctx, done, ok := s.admit(w, r, ri, t, req.Timeout)
	if !ok {
		return
	}
	defer done()
	enc := json.NewEncoder(w)
	contentType := "application/json"
	var info hypo.ReadInfo
	var body any
	var err error
	switch ri.endpoint {
	case "query":
		contentType = "application/x-ndjson"
		// QueryEachInfoCtx sets DataVersion and Cache before the first
		// yield, so the headers can go out ahead of the stream.
		err = t.Pool().QueryEachInfoCtx(ctx, req.Query, &info, func(b hypo.Binding) error {
			if ri.bindings == 0 {
				setHeaders(w, contentType, info.Cache)
			}
			if err := enc.Encode(bindingLine{Binding: b}); err != nil {
				return fmt.Errorf("%w: %v", errClientWrite, err)
			}
			ri.bindings++
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			return nil
		})
		body = doneLine{Done: true, Count: ri.bindings, DataVersion: info.DataVersion}
	case "explain":
		var proof string
		proof, info, err = t.Pool().ExplainCtx(ctx, req.Query)
		body = explainResponse{Provable: proof != "", Proof: proof, DataVersion: info.DataVersion}
	default:
		var result bool
		if len(req.Add) > 0 {
			result, info, err = t.Pool().AskUnderInfoCtx(ctx, req.Query, req.Add...)
		} else {
			result, info, err = t.Pool().AskInfoCtx(ctx, req.Query)
		}
		body = askResponse{Result: result, DataVersion: info.DataVersion}
	}
	ri.dataVersion, ri.stats, ri.cache = info.DataVersion, info.Stats, info.Cache
	if err != nil {
		fail(w, ri, err)
		return
	}
	setHeaders(w, contentType, info.Cache)
	_ = enc.Encode(body)
}

// setHeaders sets the response's Content-Type and X-Hdl-Cache, which
// surfaces how the answer cache served the read (absent when no cache is
// configured).
func setHeaders(w http.ResponseWriter, contentType string, st hypo.CacheStatus) {
	w.Header().Set("Content-Type", contentType)
	if st != hypo.CacheBypass {
		w.Header().Set("X-Hdl-Cache", st.String())
	}
}

// handleBatch evaluates many queries on a single engine lease — one
// admission slot, no interleaving with other traffic, warm memo tables
// shared across the items. The response is always 200 with per-item
// results once evaluation starts; an abort (deadline, cancellation)
// stops the batch, reports itself on the item it hit, and marks the
// rest "skipped".
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) {
	var req batchRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	if n := len(req.Queries); n == 0 || n > s.cfg.MaxBatch {
		msg := `"queries" must be non-empty`
		if n > 0 {
			msg = fmt.Sprintf("batch of %d exceeds the %d-query limit", n, s.cfg.MaxBatch)
		}
		reject(w, ri, http.StatusBadRequest, "bad_request", msg)
		return
	}
	ri.query = req.Queries[0].Query
	ctx, done, ok := s.admit(w, r, ri, t, req.Timeout)
	if !ok {
		return
	}
	defer done()
	results := make([]batchResult, len(req.Queries))
	err := t.Pool().Do(ctx, func(e *hypo.Engine) error {
		ri.dataVersion = e.DataVersion()
		before := e.Stats()
		defer func() { ri.stats = topdown.StatsDelta(before, e.Stats()) }()
		for i, item := range req.Queries {
			res, abort := evalBatchItem(ctx, e, item)
			results[i] = res
			if abort != nil {
				for j := i + 1; j < len(req.Queries); j++ {
					results[j] = batchResult{Error: &errorBody{
						Kind: "skipped", Message: "not evaluated: batch aborted earlier",
					}}
				}
				// Client gone: stop and close without a body.
				if status, _, _, _ := classify(abort); status == statusClientClosed {
					return abort
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		fail(w, ri, err)
		return
	}
	ri.bindings = len(results)
	writeJSON(w, batchResponse{Results: results, DataVersion: ri.dataVersion})
}

// evalBatchItem runs one batch entry on the leased engine. Item-level
// problems (bad query, unknown kind, budget) land in the result; an
// abort is also returned so the batch stops.
func evalBatchItem(ctx context.Context, e *hypo.Engine, item batchItem) (batchResult, error) {
	var res batchResult
	var err error
	switch item.Kind {
	case "ask", "":
		var ok bool
		ok, err = e.AskCtx(ctx, item.Query)
		res.Result = &ok
	case "askunder":
		var ok bool
		ok, err = e.AskUnderCtx(ctx, item.Query, item.Add...)
		res.Result = &ok
	case "query":
		res.Bindings, err = e.QueryCtx(ctx, item.Query)
		if res.Bindings == nil {
			res.Bindings = []hypo.Binding{}
		}
	default:
		err = fmt.Errorf("unknown kind %q (want ask, query or askunder)", item.Kind)
	}
	if err != nil {
		_, kind, msg, _ := classify(err)
		res = batchResult{Error: &errorBody{Kind: kind, Message: msg}}
		if errors.Is(err, hypo.ErrCanceled) || errors.Is(err, hypo.ErrDeadline) {
			return res, err
		}
	}
	return res, nil
}

// handleFacts commits a mutation batch against the live store. It does
// not take an evaluation slot — commits serialise inside Live.Apply and
// never lease an engine — but a draining server refuses new writes like
// it refuses new queries.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request, ri *reqInfo, t *tenant.Tenant) {
	if s.cfg.Role == "replica" && s.cfg.PrimaryURL != "" && t == s.def {
		// Replicas never commit locally — their store is written only by
		// the replication stream. Forward the write so clients can talk to
		// any node.
		if s.draining.Load() {
			fail(w, ri, tenant.ErrDraining)
			return
		}
		s.proxyFacts(w, r, ri)
		return
	}
	if t.Live() == nil {
		reject(w, ri, http.StatusNotImplemented, "not_enabled",
			"runtime fact mutation is disabled: start the server with a WAL (hdld -wal)")
		return
	}
	if s.draining.Load() || t.Draining() {
		fail(w, ri, tenant.ErrDraining)
		return
	}
	if err := t.CheckDiskQuota(); err != nil {
		fail(w, ri, err)
		return
	}
	var req factsRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	if len(req.Assert)+len(req.Retract) == 0 {
		reject(w, ri, http.StatusBadRequest, "bad_request",
			`at least one of "assert" and "retract" must be non-empty`)
		return
	}
	if n := len(req.Assert); n > 0 {
		ri.query = req.Assert[0]
	} else {
		ri.query = req.Retract[0]
	}
	ms, err := hypo.ParseMutations(req.Assert, req.Retract)
	var info live.CommitInfo
	if err == nil {
		info, err = t.Live().Apply(ms)
	}
	if err != nil {
		fail(w, ri, err)
		return
	}
	ri.dataVersion = info.Version
	ri.bindings = info.Changed
	writeJSON(w, factsResponse{Version: info.Version, Changed: info.Changed})
}

// programHealth is one program's healthz entry: its status and the data
// version its reads are served at, plus the reason when its store is
// degraded to read-only.
func programHealth(t *tenant.Tenant) map[string]any {
	p := map[string]any{"status": "ok", "dataVersion": t.Version()}
	if degraded, cause := t.Degraded(); degraded {
		p["status"], p["reason"], p["detail"] = "degraded", "read_only", cause
		if t.Recovering() {
			// A background prober is retrying the write path (transient
			// cause, e.g. a full disk); writes may come back without a
			// restart. Sticky corruption shows no recovering flag.
			p["recovering"] = true
		}
	}
	return p
}

// handleHealthz reports liveness. A server whose store degraded to
// read-only is still alive — it answers queries at the last committed
// version — so the response stays 200, with status "degraded" and a
// machine-readable reason for operators and write-path routers. The
// top-level status/dataVersion describe the default program (the legacy
// single-program shape); the "programs" map adds the same per tenant.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := programHealth(s.def)
	resp["ok"] = true
	if s.cfg.Role != "" {
		resp["role"] = s.cfg.Role
	}
	if s.cfg.Demand {
		resp["demand"] = true
	}
	// Each program reports its own degraded/read-only state, not just the
	// default's: a write-path router watching healthz must see which
	// tenants refuse writes.
	programs := make(map[string]any)
	for _, t := range s.reg.List() {
		p := programHealth(t)
		if t.Draining() {
			p["status"] = "draining"
		}
		programs[t.Name()] = p
	}
	resp["programs"] = programs
	if s.cfg.ReplicaStatus != nil {
		st := s.cfg.ReplicaStatus()
		repl := map[string]any{
			"connected":      st.Connected,
			"applied":        st.Applied,
			"primaryVersion": st.Primary,
			"lag":            st.Lag(),
			"bootstraps":     st.Bootstraps,
			"reconnects":     st.Reconnects,
		}
		if st.LastError != "" {
			repl["lastError"] = st.LastError
		}
		resp["replication"] = repl
		if !st.Connected && resp["status"] == "ok" {
			// Still serving (at the applied version) but no longer tracking
			// the primary — the operator signal that this follower is adrift.
			resp["status"] = "degraded"
			resp["reason"] = "repl_disconnected"
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]bool{"ready": false, "draining": true})
		return
	}
	if s.cfg.ReplicaStatus != nil {
		// A replica that has never caught up to its primary serves stale —
		// possibly empty — data; keep it out of the load balancer until the
		// first sync completes. Ready is sticky, so transient lag afterwards
		// does not flap readiness (min-version gating handles per-request
		// freshness).
		if st := s.cfg.ReplicaStatus(); !st.Ready {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]bool{"ready": false, "syncing": true})
			return
		}
	}
	writeJSON(w, map[string]bool{"ready": true})
}
