// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It boots the shipped daemons at their default flags — one
// snapshardd router in front of two snapserved backends, as child
// processes on loopback — drives one workload through the router from
// at most nproc client connections, checks every response against a
// reference computed without the VM under test, and prints the metrics.
// Run it from the repository root through perfbench/run.sh, which builds
// the daemons and this driver first:
//
//	bash perfbench/run.sh --workload classroom-hot --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload long-tail --seed 1 --seconds 15 --trace 1
//	bash perfbench/run.sh --compare DIR --against DIR
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. See perfbench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/runtime"
)

// ungated are measured and reported by every untraced run, and set side
// by side by --compare, but are not in BENCHMARK.json, whose metrics gate
// a change. On a shared 2-vCPU host the open-loop latencies follow the
// host's speed and the hypervisor's steal: over ten seeds, p50 spread by
// up to 0.34 of its median and p99 by up to 0.71, where a gated metric's
// bound may be at most 0.25 (README.md has both sets).
var ungated = []metricSpec{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
}

// An untraced run measures in rounds: each round is a closed-loop phase
// (closedShare of the round) then an open-loop phase, so that both kinds
// of phase meet the same host conditions. The per-round values are kept
// in the record; the metrics pool the phases of the rounds kept.
const (
	rounds      = 5
	closedShare = 0.4
	settleTime  = time.Second
)

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full result of one run, written under <out>/results.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       int                    `json:"trace"`
	Shape       string                 `json:"shape,omitempty"`
	Host        fingerprint            `json:"host"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedFrac  float64                `json:"failed_frac"`
	Failures    map[string]int         `json:"failures_by_class"`
	Mismatched  map[string]string      `json:"mismatched_bodies"`
	WarmFailed  int                    `json:"warmup_failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Ungated     map[string]metricValue `json:"ungated_metrics,omitempty"`
	Samples     map[string]int         `json:"samples"`
	SetupS      []float64              `json:"setup_s_samples,omitempty"`
	Generator   *generatorCheck        `json:"generator,omitempty"`
	Reconciled  *bool                  `json:"reconciled,omitempty"`
	OpenLoopRPS float64                `json:"open_loop_rate,omitempty"`
	Rounds      map[string][]float64   `json:"rounds,omitempty"`
	// InputsS and ReferenceS are the seconds spent generating the inputs
	// and computing their references, before any daemon starts.
	InputsS    float64 `json:"inputs_s"`
	ReferenceS float64 `json:"references_s"`
	// StealFrac is the share of the host's CPU time the hypervisor took
	// during the rounds, from /proc/stat; DroppedRounds counts the rounds
	// left out of the metrics because of it.
	StealFrac     float64 `json:"steal_frac,omitempty"`
	DroppedRounds int     `json:"dropped_rounds"`
	// TierA is the backends' project cache under the workload's own
	// traffic, over the rounds of an untraced run.
	TierA *tierATraffic `json:"tier_a_traffic,omitempty"`
	// Redrawn counts long-tail candidates drawn again for running long.
	Redrawn int `json:"redrawn_candidates,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 15, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding the snapserved and snapshardd binaries")
		outDir  = flag.String("out", ".bench_build", "directory for results, spans and daemon logs")
		base    = flag.String("compare", "", "compare the results in this directory ...")
		against = flag.String("against", "", "... with the results in this directory")
		sh      = defaultShape
	)
	// The traffic-shape flags exist for sensitivity runs; the benchmark
	// itself runs at the defaults.
	flag.IntVar(&sh.Projects, "projects", sh.Projects, "classroom-hot: distinct projects")
	flag.Float64Var(&sh.CodegenShare, "codegen-share", sh.CodegenShare, "classroom-hot: share of requests that are /v1/codegen")
	flag.IntVar(&sh.Pool, "pool", sh.Pool, "long-tail: distinct programs")
	flag.Float64Var(&sh.ZipfAlpha, "zipf-alpha", sh.ZipfAlpha, "long-tail: exponent of the Zipf-like popularity")
	flag.Parse()
	if *base != "" {
		if err := compare(*base, *against); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if sh.Projects < 1 || sh.Pool < 1 || sh.CodegenShare < 0 || sh.CodegenShare > 1 || sh.ZipfAlpha < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --projects and --pool must be at least 1, --codegen-share within [0, 1] and --zipf-alpha at least 0")
		return 2
	}
	spec, err := loadSpec()
	if err == nil {
		var rec *record
		if rec, err = measure(spec, *name, *seed, *seconds, *trace, sh, *binDir, *outDir); err == nil {
			var out []byte
			if out, err = json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics}); err == nil {
				report(spec, rec)
				fmt.Println(string(out))
				return 0
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// running is the cluster a signal must stop before the driver exits.
var running struct {
	sync.Mutex
	cl *cluster
}

func setRunning(cl *cluster) {
	running.Lock()
	running.cl = cl
	running.Unlock()
}

// stopOnSignal stops the running cluster and exits on SIGINT/SIGTERM.
func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		running.Lock()
		if running.cl != nil {
			running.cl.stop()
		}
		os.Exit(1)
	}()
}

func measure(spec *benchSpec, name string, seed int64, seconds, trace int, sh shape, binDir, outDir string) (*record, error) {
	// Every in-process run (input filtering, references, the replay)
	// uses snapserved's default value caps.
	runtime.SetGlobalCaps(daemonMaxList, daemonMaxText)
	start := time.Now()
	w, err := buildWorkload(name, seed, sh)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(start).Seconds()
	for _, bin := range []string{"snapserved", "snapshardd"} {
		if _, err := os.Stat(filepath.Join(binDir, bin)); err != nil {
			return nil, fmt.Errorf("daemon binary missing (build with perfbench/run.sh): %w", err)
		}
	}
	logDir := filepath.Join(outDir, "logs")
	for _, dir := range []string{logDir, filepath.Join(outDir, "results"), filepath.Join(outDir, "traces")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	nproc := goruntime.NumCPU()
	start = time.Now()
	if err := computeReferences(w.bodies, nproc); err != nil {
		return nil, err
	}
	refS := time.Since(start).Seconds()
	rnd := rand.New(rand.NewSource(seed))
	closedSeq := w.sequence(rnd, 1<<16)
	openSeq := w.sequence(rnd, 1<<16)
	settleSeq := w.sequence(rnd, 1<<14)

	stopOnSignal()
	c := newClient(nproc)
	warm := newTally()
	runs := w.setups
	if trace == 1 {
		runs = 1
	}
	var cl *cluster
	var setups []float64
	var booted scrapes
	for i := 0; i < runs; i++ {
		start := time.Now()
		if cl, err = bootCluster(binDir, logDir, c.probe); err != nil {
			return nil, err
		}
		setRunning(cl)
		// Let the health probes' connections close before the warm-up
		// opens nproc of its own.
		c.idle()
		if trace == 1 {
			// The traced run reports no set-up time, so this scrape may
			// sit inside it.
			if booted, err = scrapeCluster(c, cl); err != nil {
				cl.stop()
				return nil, err
			}
		}
		warmUp(c, cl.router.url, w, nproc, warm)
		setups = append(setups, time.Since(start).Seconds())
		if i < runs-1 {
			c.idle()
			cl.stop()
		}
	}
	defer cl.stop()
	defer c.idle()
	// Settle: untimed closed-loop traffic after the set-up, so the
	// daemons' heaps and pools reach their working size before anything
	// is timed (the first timed second otherwise reads slow).
	warmed := warm.attempted
	settled, _, _ := closedLoop(c, cl.router.url, w, settleSeq, 0, settleTime, nproc, warm)

	rec := &record{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Shape:      sh.of(name),
		Host:       hostFingerprint(),
		InputsS:    buildS,
		ReferenceS: refS,
		WarmFailed: warm.failed,
		Redrawn:    w.redrawn,
		Samples:    map[string]int{"warmup": warmed, "settle": settled},
	}
	phases := newTally()
	d := time.Duration(seconds) * time.Second
	if trace == 1 {
		tres, err := tracedRun(c, cl, w, closedSeq, d, phases, booted)
		if err != nil {
			return nil, err
		}
		if rec.Metrics, err = pick(spec.PerLayer, tres.metrics); err != nil {
			return nil, err
		}
		rec.Reconciled = &tres.reconciled
		if err := writeJSON(filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", name, seed)), tres.spans); err != nil {
			return nil, err
		}
	} else {
		u, err := untracedRun(c, cl, w, closedSeq, openSeq, rnd, d, nproc, phases)
		if err != nil {
			return nil, err
		}
		rss, err := cl.rssTotal()
		if err != nil {
			return nil, err
		}
		u.metrics["setup_s"] = median(setups)
		u.metrics["peak_rss_mb"] = float64(rss) / 1e6
		if rec.Metrics, err = pick(spec.EndToEnd, u.metrics); err != nil {
			return nil, err
		}
		if rec.Ungated, err = pick(ungated, u.metrics); err != nil {
			return nil, err
		}
		gen := checkGenerator(u.open, c.peak.Load(), nproc)
		rec.Generator = &gen
		rec.OpenLoopRPS = w.rate
		rec.SetupS = setups
		rec.Rounds = u.rounds
		rec.StealFrac = u.stealFrac
		rec.DroppedRounds = u.dropped
		rec.TierA = &u.tierA
		rec.Samples["closed_loop"] = u.closed
		rec.Samples["open_loop"] = len(u.open.latency)
	}
	rec.Samples["peak_connections"] = int(c.peak.Load())
	rec.Attempted, rec.Failed = phases.attempted, phases.failed
	rec.FailedFrac = ratio(float64(phases.failed), float64(phases.attempted))
	all := newTally()
	all.add(warm)
	all.add(phases)
	rec.Failures, rec.Mismatched = all.byClass, all.mismatched
	rec.Correct = all.byClass["mismatch"] == 0 && all.byClass["status"] == 0 && all.byClass["5xx"] == 0 &&
		(rec.Reconciled == nil || *rec.Reconciled)
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-trace%d-seed%d.json", name, trace, seed))
	return rec, writeJSON(path, rec)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// report prints the run for a reader: host, every metric with its unit,
// sample counts, failures and the generator and reconciliation checks.
func report(spec *benchSpec, r *record) {
	h := r.Host
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d %s\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Shape)
	fmt.Printf("  host: %s, nproc=%d, GOMAXPROCS=%d, %s, commit %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	defs := spec.EndToEnd
	if r.Trace == 1 {
		defs = spec.PerLayer
	}
	for _, def := range defs {
		fmt.Printf("  %-28s %14.4f %s\n", def.Name, r.Metrics[def.Name].Value, def.Unit)
	}
	for _, def := range ungated {
		if v, ok := r.Ungated[def.Name]; ok {
			fmt.Printf("  %-28s %14.4f %s (not gated)\n", def.Name, v.Value, v.Unit)
		}
	}
	fmt.Printf("  %-28s %14.4f frac (%d of %d failed", "failed_frac", r.FailedFrac, r.Failed, r.Attempted)
	for class, n := range r.Failures {
		fmt.Printf(", %s %d", class, n)
	}
	fmt.Println(")")
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("  samples:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, r.Samples[k])
	}
	fmt.Println()
	fmt.Printf("  inputs built in %.2f s, references in %.2f s\n", r.InputsS, r.ReferenceS)
	if len(r.SetupS) > 0 {
		fmt.Printf("  setup_s samples: %.4f\n", r.SetupS)
		fmt.Printf("  host CPU stolen during the rounds: %.4f; %d of %d rounds left out for steal over %.0f%%\n",
			r.StealFrac, r.DroppedRounds, len(r.Rounds["steal_frac"]), 100*maxRoundSteal)
	}
	if a := r.TierA; a != nil {
		fmt.Printf("  Tier A under the workload's traffic: %.0f gets, miss ratio %.4f, %.4f evictions per get\n",
			a.Gets, a.MissRatio, a.EvictionsPerGet)
	}
	if r.Redrawn > 0 {
		fmt.Printf("  %d generated candidates drawn again for running over %d steps or %d rounds\n", r.Redrawn, cheapSteps, cheapRounds)
	}
	if g := r.Generator; g != nil {
		verdict := "valid"
		if !g.Valid {
			verdict = "INVALID: " + g.Reason
		}
		fmt.Printf("  open loop at %.0f req/s: dispatch lag p50 %.3f ms, p99 %.3f ms, max %.3f ms; send lag p99 %.3f ms; peak connections %d of %d; %s\n",
			r.OpenLoopRPS, g.LagP50MS, g.LagP99MS, g.LagMaxMS, g.SendP99MS, g.PeakConns, g.MaxConns, verdict)
	}
	if r.Reconciled != nil {
		verdict := "ok"
		if !*r.Reconciled {
			verdict = "FAILED"
		}
		fmt.Printf("  stage reconciliation: gap %.4f of server.handle_us, tolerance %.2f: %s\n",
			r.Metrics["server.reconcile_gap_frac"].Value, reconcileTolerance, verdict)
	}
	for key, why := range r.Mismatched {
		fmt.Printf("  mismatch on body %s: %s\n", key, why)
	}
}
