package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/codegen"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/progcache"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/shard"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans are kept in
// memory and written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Name   string `json:"name"`
	Body   string `json:"body"` // the request body's content address
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	// Self is Dur minus the part covered by child spans.
	Self int64 `json:"self_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its ID.
func (tr *tracer) begin(name, body string, parent int) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Body: body,
		Start: int64(time.Since(tr.t0))})
	return len(tr.spans)
}

// end closes span id and returns its duration.
func (tr *tracer) end(id int) time.Duration {
	s := &tr.spans[id-1]
	s.Dur = int64(time.Since(tr.t0)) - s.Start
	return time.Duration(s.Dur)
}

// finish computes self times.
func (tr *tracer) finish() {
	for i := range tr.spans {
		tr.spans[i].Self = tr.spans[i].Dur
	}
	for _, s := range tr.spans {
		if s.Parent > 0 {
			tr.spans[s.Parent-1].Self -= s.Dur
		}
	}
}

// selfMicros collects the self times of every span named name, in µs.
func (tr *tracer) selfMicros(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.Self)/1e3)
		}
	}
	return out
}

// reconcileTolerance bounds |server.reconcile_gap_frac|: the replayed
// stages (decode, cache get, run, encode) must account for the handler's
// time to within this share. The rest is routing, the body-size limiter,
// the status recorder and the per-endpoint metrics, which the replay
// does not call.
const reconcileTolerance = 0.15

// traceResult is what a traced run measured.
type traceResult struct {
	metrics map[string]float64
	spans   []span
	// reconciled reports the stage reconciliation check.
	reconciled bool
}

// tracedRun does the three parts of the traced run on a warmed cluster:
// cluster spans (routed requests, their direct re-sends and the tracing
// overhead), an in-process replay of the handler's stages beside a
// timed handler call, and the engine_* /metrics deltas over the cluster
// part (and, for the compile tier, over the warm-up pass: booted is the
// scrape taken before it).
func tracedRun(c *client, cl *cluster, w *workload, seq []int, d time.Duration, t *tally, booted scrapes) (*traceResult, error) {
	tr := &tracer{t0: time.Now()}
	m := map[string]float64{}

	before, err := scrapeCluster(c, cl)
	if err != nil {
		return nil, err
	}
	compileDeltas(m, before.backends.minus(booted.backends), len(w.warm))
	routed, direct, err := clusterPart(c, cl, w, seq, d/2, tr, t, m)
	if err != nil {
		return nil, err
	}
	after, err := scrapeCluster(c, cl)
	if err != nil {
		return nil, err
	}
	metricDeltas(m, after.router.minus(before.router), after.backends.minus(before.backends), routed, routed+direct)

	ok, err := replayPart(w, seq, d/2, tr, t, m)
	if err != nil {
		return nil, err
	}
	tr.finish()
	for name, span := range map[string]string{
		"server.handle_us":     "server.handler",
		"server.decode_us":     "server.decode",
		"server.encode_us":     "server.encode",
		"progcache.key_us":     "progcache.body_hash",
		"progcache.get_hit_us": "progcache.get",
		"runtime.run_us":       "runtime.run_traced",
		"parse.project_us":     "parse.project",
		"lint.project_us":      "lint.project",
		"codegen.openmp_us":    "codegen.openmp",
	} {
		m[name] = median(tr.selfMicros(span))
	}
	return &traceResult{metrics: m, spans: tr.spans, reconciled: ok}, nil
}

// scrapes holds one scrape of the router and the backends' sum.
type scrapes struct {
	router, backends series
}

// scrapeCluster scrapes the router and the backends one at a time, and
// returns once every connection it opened has closed.
func scrapeCluster(c *client, cl *cluster) (scrapes, error) {
	var s scrapes
	var err error
	c.idle()
	if s.router, err = scrape(c.probe, cl.router.url); err != nil {
		return s, err
	}
	s.backends = series{}
	for _, b := range cl.backends {
		c.idle()
		one, err := scrape(c.probe, b.url)
		if err != nil {
			return s, err
		}
		s.backends = s.backends.plus(one)
	}
	c.idle()
	return s, nil
}

// hopBatch is how many bodies one routed/direct round sends.
const hopBatch = 16

// clusterPart sends batches of the workload's requests through the
// router, each batch twice — once timed as a whole (untraced), once with
// a span per request — and then re-sends each body directly to the
// backend the router places it on. shard.hop_us is routed minus direct
// for the same body; trace.overhead_us is traced minus untraced per
// request. Only one client connection is open at a time.
func clusterPart(c *client, cl *cluster, w *workload, seq []int, d time.Duration, tr *tracer, t *tally, m map[string]float64) (routed, direct int, err error) {
	ring := shard.NewRing(len(cl.backends), 64) // snapshardd's default -vnodes
	var hops, queueMS []float64
	var overheads [2][]float64 // by which pass went first
	stop := time.Now().Add(d)
	for round := 0; time.Now().Before(stop); round++ {
		batch := make([]*body, hopBatch)
		for i := range batch {
			batch[i] = w.bodies[seq[(round*hopBatch+i)%len(seq)]]
		}
		c.idle()
		if err := c.get(cl.router.url); err != nil {
			return 0, 0, err
		}
		// Alternate which pass goes first, so neither always meets
		// the colder caches.
		var tracedWall, plainWall time.Duration
		routedDur := make([]time.Duration, len(batch))
		for pass := 0; pass < 2; pass++ {
			traced := (pass+round)%2 == 0
			start := time.Now()
			for i, b := range batch {
				id := 0
				if traced {
					id = tr.begin("cluster.routed", b.key, 0)
				}
				code, raw, err := c.post(context.Background(), cl.router.url, b)
				if traced {
					routedDur[i] = tr.end(id)
				}
				if r, ok := t.record(b, code, raw, err); ok && traced {
					queueMS = append(queueMS, float64(r.QueueMS))
				}
			}
			if traced {
				tracedWall = time.Since(start)
			} else {
				plainWall = time.Since(start)
			}
		}
		routed += 2 * len(batch)
		overheads[round%2] = append(overheads[round%2], micros(tracedWall-plainWall)/float64(len(batch)))

		for backend, bk := range cl.backends {
			c.idle()
			opened := false
			for i, b := range batch {
				if ring.Prefer(progcache.BodyHash(b.src, ""))[0] != backend {
					continue
				}
				if !opened {
					if err := c.get(bk.url); err != nil {
						return 0, 0, err
					}
					opened = true
				}
				id := tr.begin("cluster.direct", b.key, 0)
				code, raw, err := c.post(context.Background(), bk.url, b)
				dd := tr.end(id)
				t.record(b, code, raw, err)
				direct++
				hops = append(hops, micros(routedDur[i]-dd))
			}
		}
	}
	m["shard.hop_us"] = median(hops)
	// Averaging the two orders cancels whatever the first pass of a
	// round pays over the second.
	m["trace.overhead_us"] = (median(overheads[0]) + median(overheads[1])) / 2
	m["runtime.queue_ms"] = mean(queueMS)
	m["trace.hop_samples"] = float64(len(hops))
	return routed, direct, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// metricDeltas turns the engine_* counter increases over the cluster
// part into per-request counts and ratios (each with its base).
func metricDeltas(m map[string]float64, router, backends series, routed, executed int) {
	perReq := func(v float64) float64 { return ratio(v, float64(executed)) }

	shardTotal := router.sum("engine_shard_requests_total{")
	var shardMax float64
	for _, id := range obs.ShardBackendIDs {
		shardMax = math.Max(shardMax, router[`engine_shard_requests_total{backend="`+id+`"}`])
	}
	m["shard.retries"] = ratio(router["engine_shard_retries_total"], float64(routed))
	m["shard.rejected"] = ratio(router["engine_shard_rejected_total"], float64(routed))
	m["shard.max_backend_share"] = ratio(shardMax, shardTotal)
	m["shard.requests"] = shardTotal

	tier := func(name, t string) float64 { return backends[name+`{tier="`+t+`"}`] }
	gets := func(t string) float64 {
		return tier("engine_progcache_hits_total", t) + tier("engine_progcache_misses_total", t) +
			tier("engine_progcache_shared_loads_total", t)
	}
	m["progcache.hit_ratio"] = ratio(tier("engine_progcache_hits_total", "project"), gets("project"))
	m["progcache.gets"] = perReq(gets("project"))
	m["progcache.evictions"] = perReq(tier("engine_progcache_evictions_total", "project"))
	m["progcache.shared_loads"] = perReq(tier("engine_progcache_shared_loads_total", "project"))
	m["progcache.script_hit_ratio"] = ratio(tier("engine_progcache_hits_total", "script"), gets("script"))
	m["progcache.script_gets"] = perReq(gets("script"))

	sessions := backends["engine_sessions_total"]
	m["runtime.steps"] = ratio(backends["engine_session_steps_sum"], sessions)
	m["runtime.sessions"] = perReq(sessions)

	m["vm.ops"] = perReq(backends["engine_vm_ops_total"])
	m["vm.tree_calls"] = perReq(backends["engine_vm_tree_calls_total"])
	m["vm.lowerings"] = perReq(backends["engine_vm_lowerings_total"])

	m["workers.jobs"] = perReq(backends.sum("engine_pool_jobs_total{"))
	m["workers.chunks"] = perReq(backends["engine_pool_chunks_total"])
	m["workers.queue_wait_us"] = 1e6 * ratio(backends["engine_pool_queue_wait_seconds_sum"], backends["engine_pool_queue_wait_seconds_count"])
	claims := backends["engine_pool_claims_total"] + backends["engine_pool_claims_empty_total"]
	m["workers.claims_empty_ratio"] = ratio(backends["engine_pool_claims_empty_total"], claims)
	m["workers.claims"] = perReq(claims)

	m["mapreduce.runs"] = perReq(backends["engine_mr_runs_total"])
	for _, phase := range []string{"map", "shuffle", "reduce"} {
		l := `{phase="` + phase + `"}`
		m["mapreduce."+phase+"_us"] = 1e6 * ratio(backends["engine_mr_phase_seconds_sum"+l], backends["engine_mr_phase_seconds_count"+l])
	}

	m["value.columnar_lists"] = perReq(backends["engine_list_columnar_lists_total"])
	m["value.columnar_upgrades"] = perReq(backends["engine_list_columnar_upgrades_total"])
}

// compileDeltas reports the compile tier over the warm-up pass, per
// warm-up request. The ring tier of progcache memoizes each shipped
// ring's compile outcome, so once the warm-up has sent every distinct
// body the compiler is not called again; its hits and refusals show
// only while the bodies are new.
func compileDeltas(m map[string]float64, warm series, warmed int) {
	fallbacks := warm.sum("engine_compile_fallbacks_total{")
	hits := warm["engine_compile_hits_total"]
	m["compile.hit_ratio"] = ratio(hits, hits+fallbacks)
	m["compile.rings"] = ratio(hits+fallbacks, float64(warmed))
	m["compile.fallbacks"] = ratio(fallbacks, float64(warmed))
}

// replayPart calls the handler's stages in-process as public functions,
// in the handler's order — decode into server.RunRequest,
// progcache.BodyHash, progcache.Projects.Get with a parse+lint loader,
// runtime.Manager.RunTraced, encode server.RunResponse — beside a timed
// server.Server.Handler() call on the same body, and times the miss-path
// layers (parse, lint) and the OpenMP emitter on the same bodies. It
// reports whether the stages reconcile with the handler.
func replayPart(w *workload, seq []int, d time.Duration, tr *tracer, t *tally, m map[string]float64) (bool, error) {
	obs.SetEnabled(true) // snapserved's -obs default
	srv := server.New(server.Config{Runtime: runtime.Config{
		MaxConcurrent: 4, // snapserved's -max-concurrent default
		Defaults:      daemonLimits,
		Ceiling:       daemonLimits,
	}})
	h := srv.Handler()
	projects := progcache.NewProjects(progcache.DefaultProjectBudget)
	sample := replaySample(w, seq)
	if len(sample) == 0 {
		return false, fmt.Errorf("workload %s has no runnable body to replay", w.name)
	}

	type stageTimes struct{ handle, decode, get, run, encode []float64 }
	perBody := map[*body]*stageTimes{}
	handle := func(b *body) {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(b.json))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		id := tr.begin("server.handler", b.key, 0)
		h.ServeHTTP(rec, req)
		perBody[b].handle = append(perBody[b].handle, micros(tr.end(id)))
		t.record(b, rec.Code, rec.Body.Bytes(), nil)
	}
	stages := func(b *body) error {
		st := perBody[b]
		root := tr.begin("replay.stages", b.key, 0)
		defer tr.end(root)

		id := tr.begin("server.decode", b.key, root)
		var rr server.RunRequest
		err := json.NewDecoder(bytes.NewReader(b.json)).Decode(&rr)
		st.decode = append(st.decode, micros(tr.end(id)))
		if err != nil {
			return err
		}
		// Get hashes the body itself; BodyHash is timed on its own so the
		// key's share of a hit shows. The reconciliation counts it once,
		// inside Get.
		id = tr.begin("progcache.body_hash", b.key, root)
		_ = progcache.BodyHash(rr.Project, rr.Format)
		tr.end(id)
		id = tr.begin("progcache.get", b.key, root)
		ent, _ := projects.Get(rr.Project, rr.Format, func() *progcache.ProjectEntry { return elaborate(rr.Project) })
		st.get = append(st.get, micros(tr.end(id)))
		if ent.Project == nil || len(ent.Fatal) > 0 {
			return fmt.Errorf("body %s: rejected in replay", b.key)
		}

		lim := runtime.Limits{
			Timeout:       time.Duration(rr.TimeoutMS) * time.Millisecond,
			MaxSteps:      rr.MaxSteps,
			MaxRounds:     rr.MaxRounds,
			MaxTraceLines: rr.MaxTraceLines,
		}
		id = tr.begin("runtime.run_traced", b.key, root)
		sess, err := srv.Manager().RunTraced(context.Background(), ent.Project, lim, "")
		st.run = append(st.run, micros(tr.end(id)))
		if err != nil {
			return err
		}
		res, _ := sess.Result()

		var out bytes.Buffer
		id = tr.begin("server.encode", b.key, root)
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		err = enc.Encode(server.RunResponse{ID: sess.ID(), Warnings: ent.Warnings, Result: res})
		st.encode = append(st.encode, micros(tr.end(id)))
		if err != nil {
			return err
		}
		t.record(b, http.StatusOK, out.Bytes(), nil)
		return nil
	}
	missPath := func(b *body) {
		id := tr.begin("parse.project", b.key, 0)
		p, err := parse.Project(b.src)
		tr.end(id)
		if err != nil {
			return
		}
		id = tr.begin("lint.project", b.key, 0)
		lint.Project(p)
		tr.end(id)
		// A refusal ("translate: ...", HTTP 422) is a legitimate outcome
		// of the emitter; it is timed all the same.
		id = tr.begin("codegen.openmp", b.key, 0)
		codegen.NewOpenMPEmitter().Program(greenFlagScript(p)) //nolint:errcheck
		tr.end(id)
	}

	// Warm the handler's cache, the replay's own cache and the script
	// tier, then drop the warm-up's spans and samples.
	kept := len(tr.spans)
	for _, b := range sample {
		perBody[b] = &stageTimes{}
		handle(b)
		if err := stages(b); err != nil {
			return false, err
		}
	}
	tr.spans = tr.spans[:kept]
	for _, b := range sample {
		perBody[b] = &stageTimes{}
	}

	stop := time.Now().Add(d)
	for it := 0; time.Now().Before(stop); it++ {
		for _, b := range sample {
			// Alternate the order so neither side always runs second.
			if it%2 == 0 {
				handle(b)
			}
			if err := stages(b); err != nil {
				return false, err
			}
			if it%2 == 1 {
				handle(b)
			}
			missPath(b)
			if !time.Now().Before(stop) {
				break
			}
		}
	}

	// Reconcile per body, so that bodies of different cost do not skew
	// a median of sums.
	var handleSum, stageSum float64
	samples := 0
	for _, st := range perBody {
		if len(st.encode) == 0 || len(st.handle) == 0 {
			continue
		}
		samples += len(st.handle)
		handleSum += median(st.handle)
		stageSum += median(st.decode) + median(st.get) + median(st.run) + median(st.encode)
	}
	gap := ratio(handleSum-stageSum, handleSum)
	m["server.reconcile_gap_frac"] = gap
	m["trace.replay_samples"] = float64(samples)
	return math.Abs(gap) <= reconcileTolerance, nil
}

// replaySample is the distinct runnable bodies the request sequence
// reaches first, at most 32 of them.
func replaySample(w *workload, seq []int) []*body {
	var sample []*body
	seen := map[*body]bool{}
	for _, i := range seq {
		b := w.bodies[i]
		if b.path == "/v1/run" && b.ref.code == http.StatusOK && !seen[b] {
			seen[b] = true
			sample = append(sample, b)
			if len(sample) == 32 {
				break
			}
		}
	}
	return sample
}

// elaborate is the handler's cache loader for a textual project: parse,
// then lint, with the findings split by severity.
func elaborate(src string) *progcache.ProjectEntry {
	p, err := parse.Project(src)
	if err != nil {
		return &progcache.ProjectEntry{ParseErr: err.Error()}
	}
	ent := &progcache.ProjectEntry{Project: p}
	for _, f := range lint.Project(p) {
		if f.Severity == lint.Error {
			ent.Fatal = append(ent.Fatal, f.String())
		} else {
			ent.Warnings = append(ent.Warnings, f.String())
		}
	}
	return ent
}
