package shard

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mathrand "math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/progcache"
)

// Config parameterizes a Router.
type Config struct {
	// Backends are the snapserved base URLs (e.g. http://10.0.0.1:8080),
	// in slot order — the order is the identity the per-backend metrics
	// and the ring's vnode positions key on, so keep it stable across
	// router restarts.
	Backends []string
	// VNodes is the virtual-node count per backend (default 64).
	VNodes int
	// MaxInflight is the cluster-wide in-flight request budget
	// (default 256).
	MaxInflight int
	// MaxBodyBytes caps request bodies (default 1 MiB, matching
	// snapserved).
	MaxBodyBytes int64
	// HealthInterval is the active /healthz probe period (default 500ms).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive failures eject a backend
	// (default 2).
	FailThreshold int
	// MaxRetries bounds additional forward attempts after a connect
	// error (default 3).
	MaxRetries int
	// RetryBase is the first backoff step; attempt k sleeps
	// RetryBase<<k plus up to 50% jitter (default 25ms).
	RetryBase time.Duration
	// SessionMemory bounds the session-ID→backend map (default 4096).
	SessionMemory int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Client overrides the forwarding HTTP client (tests; default is a
	// dedicated client with no global timeout — per-request contexts
	// govern instead, since a governed session may legitimately run for
	// its full wall-clock budget).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.SessionMemory <= 0 {
		c.SessionMemory = 4096
	}
	return c
}

// BackendStats is one backend's slice of a Stats snapshot.
type BackendStats struct {
	URL          string
	Healthy      bool
	Requests     int64
	Ejections    int64
	Readmissions int64
}

// Stats is the router's always-on counter snapshot (the obs engine_shard_*
// series mirror it while instrumentation is enabled).
type Stats struct {
	Backends     []BackendStats
	Retries      int64
	Rejected     int64
	RingRebuilds int64
	Inflight     int64
	Sessions     int
}

// Router fronts N snapserved backends with consistent-hash placement,
// health-checked failover, bounded retry, and cluster-wide admission.
type Router struct {
	cfg    Config
	ring   *Ring
	health *healthTracker
	adm    *admitter
	client *http.Client
	mux    *http.ServeMux

	requests []atomic.Int64
	retries  atomic.Int64

	jitterMu sync.Mutex
	jitter   *mathrand.Rand

	mu       sync.Mutex
	sessions map[string]int // session ID -> backend slot
	sessIDs  []string       // insertion order, for bounded eviction
}

// New builds a router over the configured backends and starts its health
// probes. Callers must Close it to stop them.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("shard: no backends configured")
	}
	backends := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			return nil, fmt.Errorf("shard: empty backend URL at slot %d", i)
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		backends[i] = b
	}
	cfg.Backends = backends

	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(len(backends), cfg.VNodes),
		adm:      newAdmitter(cfg.MaxInflight),
		client:   cfg.Client,
		mux:      http.NewServeMux(),
		requests: make([]atomic.Int64, len(backends)),
		jitter:   mathrand.New(mathrand.NewSource(time.Now().UnixNano())),
		sessions: map[string]int{},
	}
	if rt.client == nil {
		// Fresh connection per forward, deliberately: with no pooled
		// keep-alive connections, every pre-byte failure surfaces as a
		// dial error — the one class the router may safely retry on
		// another shard. A reused connection that a dying backend closed
		// under us would instead fail with an EOF indistinguishable from
		// a mid-request death, forcing the router to either fail a
		// request no backend ever saw or risk replaying one a backend
		// did see. Correct failover semantics are worth the handshake.
		rt.client = &http.Client{
			Transport: &http.Transport{DisableKeepAlives: true},
		}
	}
	rt.health = newHealthTracker(rt.ring, backends, cfg.HealthInterval, cfg.FailThreshold)
	rt.health.start()

	rt.mux.HandleFunc("POST /v1/run", rt.handleRun)
	rt.mux.HandleFunc("POST /v1/codegen", rt.handleCodegen)
	rt.mux.HandleFunc("GET /v1/sessions/{id}", rt.handleSession)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	if cfg.EnablePprof {
		rt.mux.HandleFunc("/debug/pprof/", pprof.Index)
		rt.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		rt.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		rt.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		rt.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return rt, nil
}

// Handler returns the routed HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health probes.
func (rt *Router) Close() { rt.health.close() }

// Ring exposes the hash ring (tests and the smoke mode).
func (rt *Router) Ring() *Ring { return rt.ring }

// Stats snapshots the router's counters.
func (rt *Router) Stats() Stats {
	healthy, ej, re := rt.health.snapshot()
	st := Stats{
		Retries:      rt.retries.Load(),
		Rejected:     rt.adm.rejected.Load(),
		RingRebuilds: rt.ring.Rebuilds(),
		Inflight:     rt.adm.inflight.Load(),
	}
	for i, url := range rt.cfg.Backends {
		st.Backends = append(st.Backends, BackendStats{
			URL:          url,
			Healthy:      healthy[i],
			Requests:     rt.requests[i].Load(),
			Ejections:    ej[i],
			Readmissions: re[i],
		})
	}
	rt.mu.Lock()
	st.Sessions = len(rt.sessions)
	rt.mu.Unlock()
	return st
}

// errorBody mirrors snapserved's error shape, so clients see one JSON
// dialect no matter which layer answered.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(errorBody{Error: fmt.Sprintf(format, args...)}) //nolint:errcheck
}

// requestID returns the client's X-Request-ID or mints one. The ID rides
// the forwarded request, comes back on the response, and becomes the
// backend session's trace ID — one identifier from client through router
// through engine job spans.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("shard: no entropy for request IDs: " + err.Error())
	}
	return "r-" + hex.EncodeToString(b[:])
}

// readBody drains the (capped) request body, answering 413 on overflow.
// ok is false when the request was already answered. The buffer is sized
// from Content-Length up front (bounded by MaxBodyBytes), so a ~16 KB
// envelope is read without regrowing from io.ReadAll's 512 bytes.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	size := int64(512)
	if n := r.ContentLength; n > 0 && n <= rt.cfg.MaxBodyBytes {
		size = n + 1 // the spare byte lets the final read see EOF without growing
	}
	body := make([]byte, 0, size)
	for {
		n, err := r.Body.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, true
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			} else {
				writeError(w, http.StatusBadRequest, "read request: %v", err)
			}
			return nil, false
		}
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
	}
}

// routeBody is the slice of a run/codegen request the router needs for
// placement. Everything else in the body is opaque and forwarded as-is.
type routeBody struct {
	Project string `json:"project"`
	Script  string `json:"script"`
	Format  string `json:"format"`
}

// placementKey computes the consistent-hash key for a request body: the
// program-cache Tier A content address of the program source, so a
// request routes to the shard whose caches already hold that program.
// progcache.EnvelopeKey reads it off the raw bytes; the bodies it leaves
// alone are decoded the way snapserved decodes them (first JSON value,
// case-insensitive keys). A type error in a member snapserved's run
// envelope does not have ("script") leaves the program readable, so it
// still places. Undecodable bodies key on their raw bytes — the malformed
// resubmission replays its cached 400 on one shard instead of paying a
// fresh parse failure on a random one.
func placementKey(body []byte) string {
	if key, ok := progcache.EnvelopeKey(body); ok {
		return key
	}
	return decodedKey(body)
}

// decodedKey is placementKey's decoding path.
func decodedKey(body []byte) string {
	var rb routeBody
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&rb)
	var typeErr *json.UnmarshalTypeError
	if err == nil || errors.As(err, &typeErr) {
		src := rb.Project
		if src == "" {
			src = rb.Script
		}
		if src != "" {
			return progcache.BodyHash(src, strings.ToLower(rb.Format))
		}
	}
	return progcache.BodyHash(string(body), "raw")
}

// isConnectErr reports whether a forward failed before any byte reached
// the backend — the only failure a non-idempotent request may retry.
func isConnectErr(err error) bool {
	var opErr *net.OpError
	if errors.As(err, &opErr) && opErr.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// backoff sleeps the k-th retry delay (RetryBase<<k plus up to 50%
// jitter), or returns early when the client gives up.
func (rt *Router) backoff(ctx context.Context, attempt int) {
	d := rt.cfg.RetryBase << attempt
	rt.jitterMu.Lock()
	d += time.Duration(rt.jitter.Int63n(int64(d)/2 + 1))
	rt.jitterMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// attempt forwards one request to one backend and buffers the full
// response. Buffering is what makes retry safe: nothing is written to
// the client until a backend answered, so a failed attempt leaves the
// client connection untouched.
func (rt *Router) attempt(ctx context.Context, backend int, method, path, reqID, contentType string, body []byte) (*http.Response, []byte, error) {
	rt.requests[backend].Add(1)
	if obs.Enabled() {
		obs.ShardRequests.With(strconv.Itoa(backend)).Inc()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.cfg.Backends[backend]+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, respBody, nil
}

// copyResponse relays a buffered backend response to the client,
// propagating headers — including Retry-After on a backend's own 429 —
// and the status code unchanged.
func copyResponse(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Request-ID"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body) //nolint:errcheck
}

// forwardKeyed routes a buffered POST by its placement key, failing over
// along the ring's preference order. Only connect errors retry: once a
// byte has been forwarded the request may have side effects on the
// backend, and replaying a non-idempotent request is worse than an
// honest 502.
func (rt *Router) forwardKeyed(w http.ResponseWriter, r *http.Request, path string, body []byte) (*http.Response, []byte, int, bool) {
	reqID := requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	prefs := rt.ring.Prefer(placementKey(body))
	if len(prefs) == 0 {
		w.Header().Set("Retry-After", rt.adm.retryAfter())
		writeError(w, http.StatusServiceUnavailable, "no healthy backends")
		return nil, nil, 0, false
	}
	var lastErr error
	for i, backend := range prefs {
		if i > rt.cfg.MaxRetries {
			break
		}
		if i > 0 {
			rt.retries.Add(1)
			if obs.Enabled() {
				obs.ShardRetries.Inc()
			}
			rt.backoff(r.Context(), i-1)
			if r.Context().Err() != nil {
				break
			}
		}
		resp, respBody, err := rt.attempt(r.Context(), backend, r.Method, path, reqID, r.Header.Get("Content-Type"), body)
		if err == nil {
			rt.health.reportForwardOK(backend)
			return resp, respBody, backend, true
		}
		lastErr = err
		if !isConnectErr(err) {
			// A byte may have reached the backend; the run may be
			// executing. Do not replay it elsewhere.
			writeError(w, http.StatusBadGateway, "backend %d failed mid-request: %v", backend, err)
			return nil, nil, 0, false
		}
		rt.health.reportConnectError(backend)
	}
	writeError(w, http.StatusBadGateway, "all placement candidates unreachable: %v", lastErr)
	return nil, nil, 0, false
}

func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	if !rt.adm.acquire() {
		w.Header().Set("Retry-After", rt.adm.retryAfter())
		writeError(w, http.StatusTooManyRequests, "cluster saturated: %d requests in flight", rt.cfg.MaxInflight)
		return
	}
	start := time.Now()
	defer func() { rt.adm.release(time.Since(start)) }()

	resp, respBody, backend, ok := rt.forwardKeyed(w, r, "/v1/run", body)
	if !ok {
		return
	}
	// Stamp the session→shard mapping so GET /v1/sessions/{id} finds the
	// backend that owns this session. Faulted runs (500) carry an ID too.
	var run struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(respBody, &run) == nil && run.ID != "" {
		rt.recordSession(run.ID, backend)
	}
	copyResponse(w, resp, respBody)
}

func (rt *Router) handleCodegen(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	if !rt.adm.acquire() {
		w.Header().Set("Retry-After", rt.adm.retryAfter())
		writeError(w, http.StatusTooManyRequests, "cluster saturated: %d requests in flight", rt.cfg.MaxInflight)
		return
	}
	start := time.Now()
	defer func() { rt.adm.release(time.Since(start)) }()

	resp, respBody, _, ok := rt.forwardKeyed(w, r, "/v1/codegen", body)
	if !ok {
		return
	}
	copyResponse(w, resp, respBody)
}

// handleSession routes by the session→shard mapping stamped at submit
// time. Sessions live on exactly one backend, so there is no failover —
// but the GET is idempotent, so transient transport errors retry against
// the same backend.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	backend, ok := rt.sessionBackend(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q routed through this cluster", id)
		return
	}
	reqID := requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			rt.retries.Add(1)
			if obs.Enabled() {
				obs.ShardRetries.Inc()
			}
			rt.backoff(r.Context(), attempt-1)
			if r.Context().Err() != nil {
				break
			}
		}
		resp, respBody, err := rt.attempt(r.Context(), backend, http.MethodGet, "/v1/sessions/"+id, reqID, "", nil)
		if err == nil {
			rt.health.reportForwardOK(backend)
			copyResponse(w, resp, respBody)
			return
		}
		lastErr = err
		if isConnectErr(err) {
			rt.health.reportConnectError(backend)
		}
	}
	writeError(w, http.StatusBadGateway, "session backend unreachable: %v", lastErr)
}

func (rt *Router) recordSession(id string, backend int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.sessions[id]; !dup {
		rt.sessIDs = append(rt.sessIDs, id)
		for len(rt.sessIDs) > rt.cfg.SessionMemory {
			delete(rt.sessions, rt.sessIDs[0])
			rt.sessIDs = rt.sessIDs[1:]
		}
	}
	rt.sessions[id] = backend
}

func (rt *Router) sessionBackend(id string) (int, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b, ok := rt.sessions[id]
	return b, ok
}

// healthzBackend is one backend's entry in the router's health report.
type healthzBackend struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy, _, _ := rt.health.snapshot()
	live := 0
	backends := make([]healthzBackend, len(rt.cfg.Backends))
	for i, url := range rt.cfg.Backends {
		backends[i] = healthzBackend{URL: url, Healthy: healthy[i]}
		if healthy[i] {
			live++
		}
	}
	status, code := "ok", http.StatusOK
	switch {
	case live == 0:
		status, code = "down", http.StatusServiceUnavailable
	case live < len(backends):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{ //nolint:errcheck
		"status":   status,
		"live":     live,
		"backends": backends,
		"inflight": rt.adm.inflight.Load(),
	}) //nolint:errcheck
}

// handleMetrics renders the router process's engine registry — the
// engine_shard_* families plus whatever else this process touched.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	obs.Default.Render(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String())) //nolint:errcheck
}
