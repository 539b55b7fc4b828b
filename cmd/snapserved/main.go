// Command snapserved is the multi-tenant execution daemon: an HTTP/JSON
// service that runs uploaded block projects as governed sessions (wall-
// clock deadlines, step budgets, bounded traces), translates blocks to
// text languages (§6), and sheds load when full. It is the headless
// analogue of hosting Snap! for a classroom: many students, one runtime,
// nobody's forever-loop takes the service down.
//
//	snapserved -addr :8080 -max-concurrent 8 -timeout 10s
//	snapserved -smoke        # self-test: start, run one request, exit
//	snapserved -pprof        # also mount /debug/pprof/
//
// Endpoints: POST /v1/run, POST /v1/codegen, GET /v1/sessions/{id},
// GET /healthz, GET /metrics. See docs/SERVER.md and
// docs/OBSERVABILITY.md.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/workers"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxConcurrent = flag.Int("max-concurrent", 4, "sessions executing at once")
		maxQueue      = flag.Int("max-queue", 0, "sessions waiting for a slot (0 = same as -max-concurrent)")
		queueWait     = flag.Duration("queue-wait", 5*time.Second, "longest a session waits for a slot before 429")
		timeout       = flag.Duration("timeout", runtime.DefaultLimits.Timeout, "default per-session wall-clock deadline")
		maxSteps      = flag.Int64("maxsteps", runtime.DefaultLimits.MaxSteps, "default per-session evaluator-step budget")
		maxRounds     = flag.Int("maxrounds", runtime.DefaultLimits.MaxRounds, "default per-session scheduler-round cap")
		maxTrace      = flag.Int("maxtrace", runtime.DefaultLimits.MaxTraceLines, "default bound on a session's stage output log")
		maxList       = flag.Int("maxlist", 1_000_000, "process-wide cap on list length (0 = uncapped)")
		maxText       = flag.Int("maxtext", 1<<20, "process-wide cap on text bytes (0 = uncapped)")
		maxBody       = flag.Int64("maxbody", 1<<20, "request body cap in bytes")
		cacheBytes    = flag.Int64("cache-bytes", 0, "byte budget of the content-addressed project cache (0 = default 32 MiB, negative disables)")
		nworkers      = flag.Int("workers", 0, "shared worker-pool size (0 = hardware concurrency)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "longest SIGTERM waits for in-flight sessions before exiting")
		smoke         = flag.Bool("smoke", false, "self-test: serve on an ephemeral port, run one project, exit")
		enableObs     = flag.Bool("obs", true, "collect engine metrics and job spans (engine_* series on /metrics)")
		enablePprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	obs.SetEnabled(*enableObs)
	if *nworkers > 0 {
		if !workers.ConfigureSharedPool(*nworkers) {
			log.Printf("worker pool already built; -workers %d ignored", *nworkers)
		}
	}
	runtime.SetGlobalCaps(*maxList, *maxText)

	defaults := runtime.Limits{
		Timeout:       *timeout,
		MaxSteps:      *maxSteps,
		MaxRounds:     *maxRounds,
		MaxTraceLines: *maxTrace,
	}
	srv := server.New(server.Config{
		Runtime: runtime.Config{
			MaxConcurrent: *maxConcurrent,
			MaxQueue:      *maxQueue,
			QueueWait:     *queueWait,
			Defaults:      defaults,
			// Nothing may ask for more than the daemon-wide defaults.
			Ceiling: defaults,
		},
		MaxBodyBytes: *maxBody,
		CacheBytes:   *cacheBytes,
		EnablePprof:  *enablePprof,
	})

	if *smoke {
		if err := runSmoke(srv); err != nil {
			fmt.Fprintln(os.Stderr, "smoke:", err)
			os.Exit(1)
		}
		fmt.Println("smoke ok")
		return
	}

	httpSrv := server.NewHTTPServer(*addr, srv.Handler())
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Graceful drain: flip /healthz to draining (503) so a fronting
		// shard router ejects this backend and stops sending work, wait
		// for the in-flight sessions to finish (bounded), then close the
		// listener. Requests that arrive during the drain window are
		// still served — the router's health interval, not this daemon,
		// decides how long that window is.
		log.Printf("draining: waiting up to %v for in-flight sessions", *drainTimeout)
		srv.SetDraining(true)
		if !srv.Manager().Drain(*drainTimeout) {
			st := srv.Manager().Stats()
			log.Printf("drain timeout: %d running, %d queued sessions abandoned", st.Running, st.Queued)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck
	}()
	log.Printf("snapserved listening on %s (max %d concurrent sessions, %d workers)",
		*addr, *maxConcurrent, workers.SharedPool().Size())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// runSmoke boots the server on an ephemeral port, POSTs two projects (one
// sequential, one that fans out through the worker pool), scrapes /metrics,
// and validates the scrape — the `make serve-smoke` target. The scrape
// check is the deployment-shaped guard: every series must belong to a
// known family prefix and no (name, labels) pair may repeat.
func runSmoke(srv *server.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck
	defer httpSrv.Close()

	base := "http://" + ln.Addr().String()
	projects := []string{
		`{"project": "(project \"smoke\" (sprite \"S\" (when green-flag (do (say \"hello\")))))"}`,
		// Drives parallelMap so the engine_* series have data to report.
		`{"project": "(project \"smoke-par\" (sprite \"S\" (when green-flag (do (report (parallelmap (lambda (x) (* $x 2)) (numbers 1 64) 4))))))"}`,
	}
	for _, body := range projects {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/run: status %d", resp.StatusCode)
		}
	}
	health, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: status %d", health.StatusCode)
	}
	scrape, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer scrape.Body.Close()
	if scrape.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", scrape.StatusCode)
	}
	return validateScrape(scrape.Body)
}

// validateScrape checks a Prometheus text scrape the way a collision in
// production would surface: a series outside the known prefixes means a
// registry leaked in unannounced; a duplicated (name, labels) pair means
// two registries collided and the scrape is unusable.
func validateScrape(r io.Reader) error {
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			series = line[:i] // strip the value
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if !strings.HasPrefix(name, "snapserved_") && !strings.HasPrefix(name, "engine_") {
			return fmt.Errorf("/metrics: unknown series %q (want snapserved_* or engine_*)", name)
		}
		if seen[series] {
			return fmt.Errorf("/metrics: duplicate series %q", series)
		}
		seen[series] = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(seen) == 0 {
		return errors.New("/metrics: empty scrape")
	}
	return nil
}
