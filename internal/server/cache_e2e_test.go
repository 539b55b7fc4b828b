package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/progcache"
	"repro/internal/runtime"
	"repro/internal/value"
)

// warnSrc carries a warning-severity lint finding (a broadcast no script
// listens for), so the cached elaboration has Warnings to echo.
const warnSrc = `
	(project "warned"
	  (sprite "S"
	    (when green-flag (do
	      (broadcast "nobody")
	      (say "done")))))`

// newCachingServer hands back both the Server (for cache stats) and its
// test listener, unlike newTestServer which only exposes the URL.
func newCachingServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestCacheElaboratesIdenticalBodiesOnce is the tentpole's e2e: a
// thundering herd of identical submissions parses and lints exactly once.
func TestCacheElaboratesIdenticalBodiesOnce(t *testing.T) {
	srv, ts := newCachingServer(t, Config{Runtime: runtime.Config{
		MaxConcurrent: 8, MaxQueue: 32, QueueWait: 10 * time.Second,
	}})

	const N = 12
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: warnSrc})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d, body %s", resp.StatusCode, body)
				return
			}
			var rr RunResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Error(err)
				return
			}
			if rr.Status != runtime.StatusOK {
				t.Errorf("session status = %s (%s)", rr.Status, rr.Error)
			}
			// The cached path must echo the lint warnings too.
			if len(rr.Warnings) != 1 || !strings.Contains(rr.Warnings[0], "nobody") {
				t.Errorf("warnings = %v, want the unknown-message warning", rr.Warnings)
			}
		}()
	}
	wg.Wait()

	st := srv.cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("project elaborated %d times for %d identical requests, want 1 (stats %+v)", st.Misses, N, st)
	}
	if st.Hits+st.SharedLoads != N-1 {
		t.Fatalf("hits+shared = %d, want %d (stats %+v)", st.Hits+st.SharedLoads, N-1, st)
	}
}

// TestCacheReplaysLintRejection: a cached rejection serves repeat
// offenders without re-linting, and without corrupting the cached
// finding slices.
func TestCacheReplaysLintRejection(t *testing.T) {
	srv, ts := newCachingServer(t, Config{})
	var bodies [2][]byte
	for i := range bodies {
		resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: lintBadSrc})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("attempt %d: status = %d, want 400 (body %s)", i, resp.StatusCode, body)
		}
		bodies[i] = body
	}
	if string(bodies[0]) != string(bodies[1]) {
		t.Fatalf("cached rejection drifted:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
	st := srv.cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit", st)
	}
}

// TestCacheSharedAcrossEndpoints: /v1/run and /v1/codegen address the
// same tier, so a body elaborated for one is a hit for the other.
func TestCacheSharedAcrossEndpoints(t *testing.T) {
	// A body that both executes and translates (§6 OpenMP covers
	// doParallelForEach).
	const src = `
		(project "omp"
		  (sprite "S"
		    (when green-flag (do
		      (declare data total)
		      (set data (list 1 2 3 4 5 6 7 8))
		      (set total 0)
		      (parallelforeach i $data 4 (do (change total 1)))))))`
	srv, ts := newCachingServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/codegen", CodegenRequest{Project: src, Lang: "openmp"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("codegen: %d %s", resp.StatusCode, body)
	}
	st := srv.cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want codegen to hit run's entry", st)
	}
}

// TestCacheKeyIgnoresFormatCase: elaborate treats "SBLK" and "sblk" alike,
// so they share one Tier A entry — the key the shard router places the
// request on, which has always lowercased the format.
func TestCacheKeyIgnoresFormatCase(t *testing.T) {
	srv, ts := newCachingServer(t, Config{})
	for _, format := range []string{"SBLK", "sblk", "Sblk"} {
		if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: warnSrc, Format: format}); resp.StatusCode != http.StatusOK {
			t.Fatalf("format %s: %d %s", format, resp.StatusCode, body)
		}
	}
	if st := srv.cache.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want one elaboration for one program in three format spellings", st)
	}
}

func TestCacheDisabledByNegativeBudget(t *testing.T) {
	srv, ts := newCachingServer(t, Config{CacheBytes: -1})
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: quickSrc}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
	}
	// Stats on a disabled (nil) cache are all-zero by contract.
	if st := srv.cache.Stats(); st != (progcache.Stats{}) {
		t.Fatalf("disabled cache recorded stats: %+v", st)
	}
}

// TestRetryAfterDerivedFromQueueWait: the 429 hint tracks the admission
// window instead of the old hardcoded "1".
func TestRetryAfterDerivedFromQueueWait(t *testing.T) {
	_, ts := newCachingServer(t, Config{Runtime: runtime.Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     3 * time.Second,
	}})

	// Fill the slot and the queue, then overflow.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postJSON(t, ts.URL+"/v1/run", RunRequest{Project: foreverSrc, TimeoutMS: 1500})
		}()
		time.Sleep(100 * time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: quickSrc})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q (ceil of the 3s queue wait)", got, "3")
	}
	wg.Wait()
}

// faultXML reaches the panicking primitive through the real ingestion
// path: XML is the only format whose decoder accepts arbitrary opcodes,
// so a registered-but-buggy primitive can flow through decode and lint
// (lint admits any opcode interp implements) into a session.
const faultXML = `<?xml version="1.0" encoding="UTF-8"?>
<project name="faulty">
  <sprites>
    <sprite name="S">
      <scripts>
        <script hat="whenGreenFlag">
          <block s="testServerFaultPanic"></block>
        </script>
      </scripts>
    </sprite>
  </sprites>
</project>`

// TestPrimitivePanicReturns500AndDaemonSurvives is the satellite's e2e:
// a faulting primitive yields a structured fault response, and the
// daemon keeps serving.
func TestPrimitivePanicReturns500AndDaemonSurvives(t *testing.T) {
	const op = "testServerFaultPanic"
	if !interp.HasPrimitive(op) {
		interp.RegisterPrimitive(op, func(p *interp.Process, ctx *interp.Context) (value.Value, interp.Control, error) {
			panic("synthetic server-side primitive bug")
		})
	}
	_, ts := newCachingServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Project: faultXML})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != runtime.StatusFault {
		t.Fatalf("session status = %q, want fault", rr.Status)
	}
	if !strings.Contains(rr.Error, "synthetic server-side primitive bug") {
		t.Fatalf("fault error %q lost the panic value", rr.Error)
	}
	if rr.ID == "" {
		t.Fatal("fault response lost the session ID")
	}

	// The daemon survived: the faulted session is queryable and the next
	// run is healthy.
	if resp, body := getJSON(t, ts.URL+"/v1/sessions/"+rr.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET session after fault: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/run", RunRequest{Project: quickSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault run: %d %s", resp.StatusCode, body)
	}
	var ok RunResponse
	if err := json.Unmarshal(body, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Status != runtime.StatusOK {
		t.Fatalf("post-fault session = %s, want ok", ok.Status)
	}
}
