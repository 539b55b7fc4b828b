package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/blocks"
	"repro/internal/demos"
	"repro/internal/evo/gen"
	"repro/internal/parse"
	"repro/internal/progcache"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/vm"
)

// body is one distinct request of a workload.
type body struct {
	path string // "/v1/run" or "/v1/codegen"
	json []byte // the request envelope, sent as is
	src  string // the project source inside the envelope
	key  string // the Tier A content address, hex — names the body in failure lists
	ref  reference
	// expect, when set, checks a successful run against values computed
	// directly in Go from the generated input (word count, climate).
	expect func(trace []string) error
	// paperTimesteps, when positive, is the paper's timestep count for
	// the program on the paper's interference-calibrated clock (the
	// concession stand's 3 and 12), checked when the reference is made.
	paperTimesteps int64
}

// workload is a traffic mix: its distinct bodies, the order the warm-up
// pass sends them in, how requests pick their bodies, and the open-loop
// arrival rate.
type workload struct {
	name   string
	bodies []*body
	warm   []int
	// sequence draws the bodies of the next n requests.
	sequence func(rnd *rand.Rand, n int) []int
	// rate is the open-loop Poisson arrival rate in requests/s, fixed per
	// workload at 0.22 to 0.35 of the closed-loop throughput of the commit
	// that introduced the benchmark (2-CPU x86 host, see README.md).
	rate float64
	// setups is how many times an untraced run boots the cluster and
	// warms it; setup_s is their median.
	setups int
	// redrawn counts the generated long-tail candidates drawn again for
	// running too long (see longTail).
	redrawn int
}

var workloadNames = []string{"classroom-hot", "paper-compute", "long-tail"}

// shape holds the traffic parameters a sensitivity run may change; the
// defaults are what the benchmark measures (see README.md for where each
// comes from).
type shape struct {
	// Projects and CodegenShare shape classroom-hot: how many distinct
	// projects the class re-runs, and the share of requests that ask for
	// the OpenMP translation instead of a run.
	Projects     int
	CodegenShare float64
	// Pool and ZipfAlpha shape long-tail: how many distinct programs,
	// and the exponent of their Zipf-like popularity.
	Pool      int
	ZipfAlpha float64
}

var defaultShape = shape{Projects: 6, CodegenShare: 0.2, Pool: 1700, ZipfAlpha: 0.75}

// of is the part of the shape that applies to workload name, as text
// ("" for a workload the shape does not touch).
func (sh shape) of(name string) string {
	switch name {
	case "classroom-hot":
		return fmt.Sprintf("projects=%d codegen_share=%g", sh.Projects, sh.CodegenShare)
	case "long-tail":
		return fmt.Sprintf("pool=%d zipf_alpha=%g", sh.Pool, sh.ZipfAlpha)
	}
	return ""
}

func buildWorkload(name string, seed int64, sh shape) (*workload, error) {
	rnd := rand.New(rand.NewSource(seed))
	switch name {
	case "classroom-hot":
		return classroomHot(rnd, sh)
	case "paper-compute":
		return paperCompute(rnd)
	case "long-tail":
		return longTail(rnd, sh)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func runBody(src string) (*body, error) {
	return newBody("/v1/run", src, server.RunRequest{Project: src})
}

func newBody(path, src string, envelope any) (*body, error) {
	raw, err := json.Marshal(envelope)
	if err != nil {
		return nil, err
	}
	return &body{
		path: path,
		json: raw,
		src:  src,
		key:  hex.EncodeToString([]byte(progcache.BodyHash(src, ""))[:6]),
	}, nil
}

func inOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// classroomHot is a class re-running a handful of E17-shaped projects:
// 40 sprites of message-hat scripts that parse and lint but never run,
// and a trivial green-flag script. A seeded share of the requests asks
// for the OpenMP translation of the same project instead of a run.
func classroomHot(rnd *rand.Rand, sh shape) (*workload, error) {
	w := &workload{name: "classroom-hot", rate: 230, setups: 9}
	for p := 0; p < sh.Projects; p++ {
		var src strings.Builder
		fmt.Fprintf(&src, "(project \"class%d\"\n", p)
		fmt.Fprintf(&src, "  (sprite \"Main\" (when green-flag (do (say (+ %d %d)))))\n", rnd.Intn(100), rnd.Intn(100))
		off := rnd.Intn(1000)
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&src, "  (sprite \"S%d\" (when (receive \"m%d\") (do", i, i)
			for j := 0; j < 12; j++ {
				fmt.Fprintf(&src, " (say (join \"v%d-\" (+ %d %d)))", j, i+off, j)
			}
			src.WriteString(")))\n")
		}
		src.WriteString(")")
		run, err := runBody(src.String())
		if err != nil {
			return nil, err
		}
		cg, err := newBody("/v1/codegen", src.String(), server.CodegenRequest{Project: src.String(), Lang: "openmp"})
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, run, cg)
	}
	w.warm = inOrder(len(w.bodies))
	w.sequence = func(rnd *rand.Rand, n int) []int {
		out := make([]int, n)
		for k := range out {
			out[k] = 2 * rnd.Intn(sh.Projects)
			if rnd.Float64() < sh.CodegenShare {
				out[k]++
			}
		}
		return out
	}
	return w, nil
}

// greenFlag wraps one green-flag script as a one-sprite project source.
func greenFlag(name, script string) string {
	return fmt.Sprintf("(project %q\n  (sprite \"S\" (when green-flag (do %s)))\n)", name, script)
}

// wordVocabulary feeds the word-count texts.
var wordVocabulary = strings.Fields(`four score and seven years ago our fathers
brought forth on this continent a new nation conceived in liberty dedicated
to the proposition that all men are created equal now we engaged great civil war`)

// sizeVariants is how many input sizes paper-compute posts per program.
const sizeVariants = 4

// paperCompute posts the paper's own programs with seeded input sizes,
// so that each request spends milliseconds executing.
func paperCompute(rnd *rand.Rand) (*workload, error) {
	w := &workload{name: "paper-compute", rate: 80, setups: 9}
	add := func(src string, expect func([]string) error) error {
		b, err := runBody(src)
		if err != nil {
			return err
		}
		b.expect = expect
		w.bodies = append(w.bodies, b)
		return nil
	}
	// Each program comes in sizeVariants sizes, one drawn from each
	// equal slice of its range, so every seed asks for about the same
	// total work.
	sizes := func(lo, hi int) []int {
		out := make([]int, sizeVariants)
		for i := range out {
			out[i] = lo + (i*(hi-lo)+rnd.Intn(hi-lo))/sizeVariants
		}
		return out
	}
	// Fig 5: parallelMap over numbers from 1 to N, summed so the whole
	// result is checked.
	for _, n := range sizes(6000, 9000) {
		src := greenFlag(fmt.Sprintf("fig5-%d", n), fmt.Sprintf(
			"(say (combine (parallelmap (ring (* _ 10)) (numbers 1 %d) 4) (ring (+ _ _))))", n))
		if err := add(src, nil); err != nil {
			return nil, err
		}
	}
	// Fig 11-12: word count over a seeded text.
	for _, n := range sizes(4000, 5500) {
		words := make([]string, n)
		for i := range words {
			words[i] = wordVocabulary[rnd.Intn(len(wordVocabulary))]
		}
		src := greenFlag(fmt.Sprintf("fig11-%d", n), fmt.Sprintf(
			"(say (mapreduce (ring (list _ 1)) (ring (combine _ (ring (+ _ _)))) (split %q \" \")))",
			strings.Join(words, " ")))
		if err := add(src, expectWordCount(words)); err != nil {
			return nil, err
		}
	}
	// Fig 13: Fahrenheit readings averaged in Celsius.
	for _, n := range sizes(6000, 8000) {
		temps := make([]int, n)
		lits := make([]string, n)
		for i := range temps {
			temps[i] = 20 + rnd.Intn(80)
			lits[i] = fmt.Sprint(temps[i])
		}
		src := greenFlag(fmt.Sprintf("fig13-%d", n), fmt.Sprintf(
			"(say (mapreduce (ring (/ (* 5 (- _ 32)) 9)) (ring (/ (combine _ (ring (+ _ _))) (length _))) (list %s)))",
			strings.Join(lits, " ")))
		if err := add(src, expectClimate(temps)); err != nil {
			return nil, err
		}
	}
	// Fig 9/10: the concession stand, parallel and sequential.
	for _, stand := range []struct {
		parallel  bool
		timesteps int64
	}{{true, 3}, {false, 12}} {
		src, err := parse.PrintProject(demos.Concession(stand.parallel))
		if err != nil {
			return nil, err
		}
		if err := add(src, nil); err != nil {
			return nil, err
		}
		w.bodies[len(w.bodies)-1].paperTimesteps = stand.timesteps
	}
	// A sequential counting loop: bytecode VM work.
	for _, n := range sizes(8000, 11000) {
		src := greenFlag(fmt.Sprintf("count-%d", n), fmt.Sprintf(
			"(declare n) (set n 0) (repeat %d (change n 1)) (say $n)", n))
		if err := add(src, nil); err != nil {
			return nil, err
		}
	}
	// A parallelMap whose ring reads a free variable. parallelMap ships
	// its ring without the script's variables, so the ring compiler
	// compiles the failed read and the run reports the interpreter's
	// "does not exist" error at once: this checks the error path.
	for _, n := range sizes(2000, 3000) {
		src := greenFlag(fmt.Sprintf("freevar-%d", n), fmt.Sprintf(
			"(declare k) (set k 3) (say (combine (parallelmap (ring (* _ $k)) (numbers 1 %d) 4) (ring (+ _ _))))", n))
		if err := add(src, nil); err != nil {
			return nil, err
		}
	}
	// A parallelMap whose ring body is a script (do ... report): the ring
	// compiler refuses it (reason script-body), so the workers run every
	// item on the interpreter tier.
	for _, n := range sizes(2000, 3000) {
		src := greenFlag(fmt.Sprintf("scriptring-%d", n), fmt.Sprintf(
			"(say (combine (parallelmap (ring (do (report (* _ 10)))) (numbers 1 %d) 4) (ring (+ _ _))))", n))
		if err := add(src, nil); err != nil {
			return nil, err
		}
	}
	w.warm = inOrder(len(w.bodies))
	w.sequence = func(rnd *rand.Rand, n int) []int {
		out := make([]int, n)
		for k := range out {
			out[k] = rnd.Intn(len(w.bodies))
		}
		return out
	}
	return w, nil
}

// Long-tail body shape: each body is one evo/gen program on the green
// flag plus padScripts more under message hats nobody broadcasts, about
// 16 KiB of source. Tier A charges 512 B + 3 x source bytes per entry,
// about 50 KiB, so one backend's default 32 MiB holds some 670 bodies and
// the default pool of 1700 is about 1.3 times what both backends together
// hold.
const (
	padScripts  = 48
	cheapSteps  = 2_000
	cheapRounds = 500
)

// longTail draws seeded evo/gen programs from a pool bigger than the
// backends' project caches, with Zipf-like popularity: P(rank k) is
// proportional to k^-alpha. The program cache inserts and evicts
// alongside its hits, and every miss pays parse and lint.
func longTail(rnd *rand.Rand, sh shape) (*workload, error) {
	w := &workload{name: "long-tail", rate: 130, setups: 3}
	// The programs that run are kept cheap: a candidate whose green-flag
	// script needs more than cheapSteps evaluator steps (or cheapRounds
	// scheduler rounds) on the tree walker is drawn again. The long tail
	// is about the cache's write side; a rare program that runs for
	// seconds would make one seed's throughput about that program.
	vm.SetEnabled(false)
	defer vm.SetEnabled(true)
	cheap := runtime.Limits{Timeout: 5 * time.Second, MaxSteps: cheapSteps, MaxRounds: cheapRounds}
	mgr := runtime.NewManager(runtime.Config{Defaults: cheap, Ceiling: cheap})
	for len(w.bodies) < sh.Pool {
		p := gen.Project(gen.Random(rnd, 32+rnd.Intn(224)))
		sess, err := mgr.Run(context.Background(), p, runtime.Limits{})
		if err != nil {
			return nil, err
		}
		if res, _ := sess.Result(); res.Status != runtime.StatusOK && res.Status != runtime.StatusError {
			w.redrawn++
			continue
		}
		sp := p.Sprites[0]
		for i := 0; i < padScripts; i++ {
			sp.AddScript(blocks.HatBroadcast, fmt.Sprintf("idle%d", i), gen.Script(gen.Random(rnd, 32+rnd.Intn(224))))
		}
		src, err := parse.PrintProject(p)
		if err != nil {
			return nil, fmt.Errorf("print generated program: %w", err)
		}
		b, err := runBody(src)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, b)
	}
	// Popularity rank -> body: a seeded permutation, so rank 0 is a
	// different program on every seed.
	rank := rnd.Perm(len(w.bodies))
	// The cumulative popularity of ranks 0..k.
	cdf := make([]float64, len(rank))
	var total float64
	for k := range cdf {
		total += math.Pow(float64(k+1), -sh.ZipfAlpha)
		cdf[k] = total
	}
	w.sequence = func(rnd *rand.Rand, n int) []int {
		out := make([]int, n)
		for k := range out {
			out[k] = rank[sort.SearchFloat64s(cdf, rnd.Float64()*total)]
		}
		return out
	}
	w.warm = steadyOrder(w.sequence(rnd, 10*sh.Pool), len(w.bodies))
	return w, nil
}

// steadyOrder is a warm-up order that leaves an LRU cache as a long run
// of the workload's own traffic would: every body once, ordered by when
// it was last drawn in seq (bodies never drawn first). Warming in
// popularity order instead leaves the caches holding the ideal top of the
// pool, which the traffic then erodes while timing runs.
func steadyOrder(seq []int, bodies int) []int {
	last := make([]int, bodies)
	for i := range last {
		last[i] = -1
	}
	for k, b := range seq {
		last[b] = k
	}
	order := inOrder(bodies)
	sort.SliceStable(order, func(i, j int) bool { return last[order[i]] < last[order[j]] })
	return order
}

// expectWordCount checks the said word-count list against counts made
// directly from the generated words.
func expectWordCount(words []string) func([]string) error {
	counts := map[string]int{}
	for _, w := range words {
		counts[w]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("[%s %d]", k, counts[k])
	}
	want := fmt.Sprintf("S says %q", "["+strings.Join(parts, " ")+"]")
	return func(trace []string) error {
		if len(trace) != 1 || !strings.HasSuffix(trace[0], want) {
			return fmt.Errorf("word count: trace %q, want a line ending %s", trace, want)
		}
		return nil
	}
}

// expectClimate checks the said Celsius mean against the mean computed
// directly from the generated Fahrenheit readings.
func expectClimate(tempsF []int) func([]string) error {
	var sum float64
	for _, t := range tempsF {
		sum += 5 * float64(t-32) / 9
	}
	want := sum / float64(len(tempsF))
	return func(trace []string) error {
		said, ok := "", len(trace) == 1
		if ok {
			said, ok = saidText(trace[0])
		}
		got, err := strconv.ParseFloat(said, 64)
		if !ok || err != nil {
			return fmt.Errorf("climate: trace %q, want one said number", trace)
		}
		// The service sums in its own order; allow for float rounding.
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("climate: mean %v °C, want %v", got, want)
		}
		return nil
	}
}

// saidText extracts the quoted text of a `<sprite> says "<text>"` trace
// line.
func saidText(line string) (string, bool) {
	i := strings.Index(line, " says ")
	if i < 0 {
		return "", false
	}
	s, err := strconv.Unquote(line[i+len(" says "):])
	return s, err == nil
}
