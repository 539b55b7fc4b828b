package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client is the driver's HTTP side. Every connection it opens goes
// through one counting dialer, so a run can show that it never held
// more client connections than nproc.
type client struct {
	hc    *http.Client // keep-alive traffic: at most maxConns per host
	probe *http.Client // health polls and scrapes: one short-lived connection each
	tr    *http.Transport
	open  atomic.Int64
	peak  atomic.Int64
}

func newClient(maxConns int) *client {
	c := &client{}
	var d net.Dialer
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		n := c.open.Add(1)
		for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
		}
		return &countedConn{Conn: conn, open: &c.open}, nil
	}
	c.tr = &http.Transport{
		DialContext:         dial,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: c.tr, Timeout: 60 * time.Second}
	c.probe = &http.Client{
		Transport: &http.Transport{DialContext: dial, DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
	return c
}

// countedConn decrements the open-connection count once when closed.
type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.open.Add(-1) })
	return cc.Conn.Close()
}

// idle closes the keep-alive connections, so a phase that talks to
// another daemon starts from zero open connections. It then waits (up to
// a second) until every client connection has closed: a probe's
// connection is closed by the transport after its response has been
// read, so one may still be open when the probe returns.
func (c *client) idle() {
	c.tr.CloseIdleConnections()
	for deadline := time.Now().Add(time.Second); c.open.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

func (c *client) post(ctx context.Context, base string, b *body) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+b.path, bytes.NewReader(b.json))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// get opens a keep-alive connection to base with a GET /healthz, so the
// timed requests that follow do not pay the TCP handshake.
func (c *client) get(base string) error {
	resp, err := c.hc.Get(base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.Body.Close()
}

// tally counts attempted and failed requests. A request fails on a
// transport error, a 429, a 5xx, any other unexpected status, or a body
// that differs from the reference.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	byClass   map[string]int
	// mismatched names each body whose response differed, by its Tier A
	// content address, with the first difference seen.
	mismatched map[string]string
}

func newTally() *tally { return &tally{byClass: map[string]int{}, mismatched: map[string]string{}} }

// record checks one response and counts it. ok is false for a failure.
func (t *tally) record(b *body, code int, raw []byte, err error) (r reply, ok bool) {
	class := ""
	switch {
	case err != nil:
		class = "transport"
	case code == http.StatusTooManyRequests:
		class = "429"
	case code >= 500:
		class = "5xx"
	default:
		r, err = b.check(code, raw)
		if errors.Is(err, errMismatch) {
			class = "mismatch"
		} else if err != nil {
			class = "status"
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if class == "" {
		return r, true
	}
	t.failed++
	t.byClass[class]++
	if class == "mismatch" {
		if _, seen := t.mismatched[b.key]; !seen {
			t.mismatched[b.key] = err.Error()
		}
	}
	return r, false
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, v := range o.byClass {
		t.byClass[k] += v
	}
	for k, v := range o.mismatched {
		if _, seen := t.mismatched[k]; !seen {
			t.mismatched[k] = v
		}
	}
}

// warmUp sends every distinct body once, in the workload's warm-up
// order, from nproc clients.
func warmUp(c *client, base string, w *workload, clients int, t *tally) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(w.warm); k = int(next.Add(1)) - 1 {
				b := w.bodies[w.warm[k]]
				code, raw, err := c.post(context.Background(), base, b)
				t.record(b, code, raw, err)
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs `clients` clients that each send their next request as
// soon as the previous one completes, for duration d. It returns the
// requests completed, how many of them were correct, and the time until
// the last one ended.
func closedLoop(c *client, base string, w *workload, seq []int, from int, d time.Duration, clients int, t *tally) (completed, correct int, elapsed time.Duration) {
	var next atomic.Int64
	var done, ok atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				b := w.bodies[seq[(from+int(next.Add(1)-1))%len(seq)]]
				code, raw, err := c.post(context.Background(), base, b)
				if _, good := t.record(b, code, raw, err); good {
					ok.Add(1)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(done.Load()), int(ok.Load()), time.Since(start)
}

// openResult is what the open-loop phase measured, in milliseconds.
type openResult struct {
	latency []float64 // due time to response, per completed request
	// dispatchLag is how late the generator handed each request over
	// after its due time: its own schedule keeping, which must stay small
	// for the latencies to mean anything.
	dispatchLag []float64
	// sendLag is due time to send: dispatch lag plus the wait for a free
	// client connection (queueing the system's slowness caused).
	sendLag []float64
	due     int // requests scheduled inside the window
}

// openLoop sends requests on a seeded Poisson schedule at `rate` per
// second for duration d over at most `conns` connections, and times each
// from its due time, not from when it was sent.
func openLoop(c *client, base string, w *workload, seq []int, from int, rnd *rand.Rand, rate float64, d time.Duration, conns int, t *tally) openResult {
	var due []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rnd.ExpFloat64() / rate * float64(time.Second))
		if at >= d {
			break
		}
		due = append(due, at)
	}
	res := openResult{
		latency:     make([]float64, len(due)),
		dispatchLag: make([]float64, len(due)),
		sendLag:     make([]float64, len(due)),
		due:         len(due),
	}
	jobs := make(chan int, len(due)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				at := start.Add(due[k])
				res.sendLag[k] = millis(time.Since(at))
				b := w.bodies[seq[(from+k)%len(seq)]]
				code, raw, err := c.post(context.Background(), base, b)
				res.latency[k] = millis(time.Since(at))
				t.record(b, code, raw, err)
			}
		}()
	}
	for k, at := range due {
		time.Sleep(time.Until(start.Add(at)))
		res.dispatchLag[k] = millis(time.Since(start.Add(at)))
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return res
}

// generatorCheck is the load generator's self-check: a run is invalid
// when the generator fell behind its own schedule or held more client
// connections than allowed, so that a generator stall is never reported
// as a slow program.
type generatorCheck struct {
	LagP50MS  float64 `json:"dispatch_lag_p50_ms"`
	LagP99MS  float64 `json:"dispatch_lag_p99_ms"`
	LagMaxMS  float64 `json:"dispatch_lag_max_ms"`
	SendP99MS float64 `json:"send_lag_p99_ms"`
	PeakConns int64   `json:"peak_connections"`
	MaxConns  int     `json:"max_connections"`
	Valid     bool    `json:"valid"`
	Reason    string  `json:"reason,omitempty"`
}

// maxDispatchLagP99 is the schedule-keeping limit: beyond it the
// generator, not the system, decided when requests went out.
const maxDispatchLagP99 = 5.0 // ms

func checkGenerator(o openResult, peak int64, maxConns int) generatorCheck {
	lags := append([]float64(nil), o.dispatchLag...)
	sort.Float64s(lags)
	g := generatorCheck{
		LagP50MS:  quantile(lags, 0.5),
		LagP99MS:  quantile(lags, 0.99),
		SendP99MS: quantile(append([]float64(nil), o.sendLag...), 0.99),
		PeakConns: peak,
		MaxConns:  maxConns,
		Valid:     true,
	}
	if len(lags) > 0 {
		g.LagMaxMS = lags[len(lags)-1]
	}
	switch {
	case peak > int64(maxConns):
		g.Valid, g.Reason = false, fmt.Sprintf("held %d client connections, limit %d", peak, maxConns)
	case g.LagP99MS > maxDispatchLagP99:
		g.Valid, g.Reason = false, fmt.Sprintf("dispatch lag p99 %.2f ms over the %.0f ms limit", g.LagP99MS, maxDispatchLagP99)
	}
	return g
}

// A round in which the hypervisor took more than maxRoundSteal of the
// host's CPU is measured again, at most extraRounds times per run, and
// the rounds with the least steal are kept, so a neighbour's short burst
// lengthens the run instead of moving its figures.
const (
	maxRoundSteal = 0.05
	extraRounds   = 1
)

// round is what one closed-then-open round measured.
type round struct {
	completed, correct int
	elapsed, cpu       time.Duration
	open               openResult
	steal              float64
}

// untraced is what the rounds of an untraced run measured.
type untraced struct {
	metrics   map[string]float64
	rounds    map[string][]float64 // per-round values, every round run
	open      openResult           // the open-loop samples of the rounds kept
	closed    int                  // closed-loop requests completed in the rounds kept
	stealFrac float64              // over every round run
	dropped   int                  // rounds left out for host steal
	tierA     tierATraffic         // over every round run
}

// tierATraffic is the backends' project cache (progcache Tier A) under
// the workload's own traffic, from the engine_progcache_* series.
type tierATraffic struct {
	Gets            float64 `json:"gets"`
	MissRatio       float64 `json:"miss_ratio"`
	EvictionsPerGet float64 `json:"evictions_per_get"`
}

// untracedRun measures rounds of a closed-loop phase (nproc clients) and
// an open-loop phase (Poisson arrivals at w.rate over at most nproc
// connections), each round continuing the request sequences, until it
// has `rounds` rounds without heavy host steal or has run the extra
// rounds too; it keeps the `rounds` rounds with the least steal. The
// daemons' CPU time is read from /proc around each closed phase. Every
// request sent counts in t, kept round or not.
func untracedRun(c *client, cl *cluster, w *workload, closedSeq, openSeq []int, rnd *rand.Rand, d time.Duration, nproc int, t *tally) (*untraced, error) {
	closedD := time.Duration(float64(d) * closedShare / rounds)
	openD := d/rounds - closedD
	var all []round
	usedClosed, usedOpen, clean := 0, 0, 0
	// The cache counters are scraped before the first round and after
	// the last, outside every timed phase.
	before, err := scrapeCluster(c, cl)
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostSteal()
	for clean < rounds && len(all) < rounds+extraRounds {
		s0, t0 := hostSteal()
		cpu0, err := cl.cpuTotal()
		if err != nil {
			return nil, err
		}
		completed, correct, elapsed := closedLoop(c, cl.router.url, w, closedSeq, usedClosed, closedD, nproc, t)
		cpu1, err := cl.cpuTotal()
		if err != nil {
			return nil, err
		}
		usedClosed += completed
		o := openLoop(c, cl.router.url, w, openSeq, usedOpen, rnd, w.rate, openD, nproc, t)
		usedOpen += o.due
		s1, t1 := hostSteal()
		r := round{completed: completed, correct: correct, elapsed: elapsed, cpu: cpu1 - cpu0, open: o, steal: ratio(s1-s0, t1-t0)}
		all = append(all, r)
		if r.steal <= maxRoundSteal {
			clean++
		}
	}
	steal1, total1 := hostSteal()
	after, err := scrapeCluster(c, cl)
	if err != nil {
		return nil, err
	}
	// Keep the `rounds` rounds the hypervisor disturbed least.
	kept := append([]round(nil), all...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].steal < kept[j].steal })
	kept = kept[:rounds]
	u := &untraced{
		metrics:   map[string]float64{},
		rounds:    map[string][]float64{},
		stealFrac: ratio(steal1-steal0, total1-total0),
		dropped:   len(all) - len(kept),
		tierA:     tierA(after.backends.minus(before.backends)),
	}
	for _, r := range all {
		lat := append([]float64(nil), r.open.latency...)
		u.rounds["steal_frac"] = append(u.rounds["steal_frac"], r.steal)
		u.rounds["throughput_rps"] = append(u.rounds["throughput_rps"], float64(r.correct)/r.elapsed.Seconds())
		u.rounds["cpu_ms_per_req"] = append(u.rounds["cpu_ms_per_req"], ratio(millis(r.cpu), float64(r.completed)))
		u.rounds["latency_p50_ms"] = append(u.rounds["latency_p50_ms"], quantile(lat, 0.50))
		u.rounds["latency_p99_ms"] = append(u.rounds["latency_p99_ms"], quantile(lat, 0.99))
	}
	// Every metric pools the kept rounds: the closed phases for
	// throughput and CPU (which averages over the daemons' GC cycles),
	// the open phases for the latencies (so p99 rests on at least ten
	// samples beyond it).
	good := 0
	var cpu, busy time.Duration
	for _, r := range kept {
		good += r.correct
		u.closed += r.completed
		cpu += r.cpu
		busy += r.elapsed
		u.open.latency = append(u.open.latency, r.open.latency...)
		u.open.dispatchLag = append(u.open.dispatchLag, r.open.dispatchLag...)
		u.open.sendLag = append(u.open.sendLag, r.open.sendLag...)
		u.open.due += r.open.due
	}
	u.metrics["throughput_rps"] = float64(good) / busy.Seconds()
	u.metrics["cpu_ms_per_req"] = ratio(millis(cpu), float64(u.closed))
	lat := append([]float64(nil), u.open.latency...)
	u.metrics["latency_p50_ms"] = quantile(lat, 0.50)
	u.metrics["latency_p99_ms"] = quantile(lat, 0.99)
	return u, nil
}

func tierA(d series) tierATraffic {
	get := func(name string) float64 { return d[name+`{tier="project"}`] }
	gets := get("engine_progcache_hits_total") + get("engine_progcache_misses_total") + get("engine_progcache_shared_loads_total")
	return tierATraffic{
		Gets:            gets,
		MissRatio:       ratio(get("engine_progcache_misses_total"), gets),
		EvictionsPerGet: ratio(get("engine_progcache_evictions_total"), gets),
	}
}

// hostSteal reads the steal and total jiffies of the host from /proc/stat
// (zeros when unreadable).
func hostSteal() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
