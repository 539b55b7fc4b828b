// Command snapshardd is the consistent-hash shard router: the front door
// of a snapserved cluster. It places every submitted program on the shard
// whose program caches already hold it (routing on the same content
// address internal/progcache keys on), routes session lookups to the
// shard that ran them, health-checks the backends (ejecting dead or
// draining ones and re-admitting them when they recover), retries
// connect errors onto the next shard with exponential backoff, and sheds
// load cluster-wide with a bounded in-flight budget.
//
//	snapshardd -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	snapshardd -smoke        # self-test: 2 in-process backends, one kill
//
// Endpoints mirror snapserved: POST /v1/run, POST /v1/codegen,
// GET /v1/sessions/{id}, GET /healthz (cluster health), GET /metrics
// (engine_shard_* series). See docs/SHARDING.md.
package main

import (
	"bufio"
	"bytes"
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
	"repro/internal/shard"
)

func main() {
	var (
		addr           = flag.String("addr", ":8070", "listen address")
		backends       = flag.String("backends", "", "comma-separated snapserved base URLs, in stable slot order")
		vnodes         = flag.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
		maxInflight    = flag.Int("maxinflight", 256, "cluster-wide in-flight request budget (429 beyond)")
		maxBody        = flag.Int64("maxbody", 1<<20, "request body cap in bytes")
		healthInterval = flag.Duration("health-interval", 500*time.Millisecond, "active /healthz probe period per backend")
		failThreshold  = flag.Int("fail-threshold", 2, "consecutive failures that eject a backend from the ring")
		maxRetries     = flag.Int("max-retries", 3, "additional forward attempts after a connect error")
		smoke          = flag.Bool("smoke", false, "self-test: route over 2 in-process backends, kill one, exit")
		enableObs      = flag.Bool("obs", true, "collect engine_shard_* metrics (on /metrics)")
		enablePprof    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	obs.SetEnabled(*enableObs)

	if *smoke {
		if err := runSmoke(*vnodes, *maxInflight); err != nil {
			fmt.Fprintln(os.Stderr, "smoke:", err)
			os.Exit(1)
		}
		fmt.Println("smoke ok")
		return
	}

	if *backends == "" {
		log.Fatal("snapshardd: -backends is required (comma-separated snapserved URLs)")
	}
	rt, err := shard.New(shard.Config{
		Backends:       strings.Split(*backends, ","),
		VNodes:         *vnodes,
		MaxInflight:    *maxInflight,
		MaxBodyBytes:   *maxBody,
		HealthInterval: *healthInterval,
		FailThreshold:  *failThreshold,
		MaxRetries:     *maxRetries,
		EnablePprof:    *enablePprof,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	httpSrv := server.NewHTTPServer(*addr, rt.Handler())
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck
	}()
	log.Printf("snapshardd listening on %s (%d backends, %d vnodes each, %d in-flight budget)",
		*addr, len(rt.Stats().Backends), *vnodes, *maxInflight)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// smokeBackend is one in-process snapserved the smoke routes over.
type smokeBackend struct {
	srv  *server.Server
	http *http.Server
	url  string
}

func startSmokeBackend() (*smokeBackend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Runtime: runtime.Config{MaxConcurrent: 4, MaxQueue: 8}})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck
	return &smokeBackend{srv: srv, http: hs, url: "http://" + ln.Addr().String()}, nil
}

// runSmoke is the `make shard-smoke` target: boot two real in-process
// snapserved backends and the router on ephemeral ports, push repeated
// traffic through, kill one backend mid-run (the scripted kill), verify
// the survivors absorb everything, then validate the /metrics scrape the
// same way serve-smoke does.
func runSmoke(vnodes, maxInflight int) error {
	b0, err := startSmokeBackend()
	if err != nil {
		return err
	}
	defer b0.http.Close()
	b1, err := startSmokeBackend()
	if err != nil {
		return err
	}
	defer b1.http.Close()

	rt, err := shard.New(shard.Config{
		Backends:       []string{b0.url, b1.url},
		VNodes:         vnodes,
		MaxInflight:    maxInflight,
		HealthInterval: 50 * time.Millisecond,
		FailThreshold:  2,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	front := &http.Server{Handler: rt.Handler()}
	go front.Serve(ln) //nolint:errcheck
	defer front.Close()
	base := "http://" + ln.Addr().String()

	post := func(project string) error {
		body := fmt.Sprintf(`{"project": %q}`, project)
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST /v1/run: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		}
		return nil
	}
	projects := make([]string, 4)
	for i := range projects {
		projects[i] = fmt.Sprintf(
			`(project "smoke%d" (sprite "S" (when green-flag (do (report (parallelmap (lambda (x) (* $x %d)) (numbers 1 32) 4))))))`,
			i, i+2)
	}
	for round := 0; round < 3; round++ {
		for _, p := range projects {
			if err := post(p); err != nil {
				return err
			}
		}
	}

	// The scripted kill: drain backend 0 the way SIGTERM would — stop
	// accepting, finish in-flight — then keep submitting. Every request
	// must land on the survivor (connect errors retry onto it).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	b0.http.Shutdown(ctx) //nolint:errcheck
	for round := 0; round < 3; round++ {
		for _, p := range projects {
			if err := post(p); err != nil {
				return fmt.Errorf("after kill: %w", err)
			}
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := rt.Stats()
		if !st.Backends[0].Healthy && st.Backends[0].Ejections >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("backend 0 was never ejected after the kill")
		}
		time.Sleep(20 * time.Millisecond)
	}

	health, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: status %d (want 200 degraded)", health.StatusCode)
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

// validateScrape mirrors serve-smoke's deployment-shaped scrape check:
// every series must belong to a known family prefix, no (name, labels)
// pair may repeat, and the shard family this daemon exists to emit must
// actually be present.
func validateScrape(r io.Reader) error {
	seen := make(map[string]bool)
	sawShard := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			series = line[:i]
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if !strings.HasPrefix(name, "engine_") {
			return fmt.Errorf("/metrics: unknown series %q (want engine_*)", name)
		}
		if strings.HasPrefix(name, "engine_shard_") {
			sawShard = true
		}
		if seen[series] {
			return fmt.Errorf("/metrics: duplicate series %q", series)
		}
		seen[series] = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawShard {
		return errors.New("/metrics: no engine_shard_* series in the scrape")
	}
	return nil
}
