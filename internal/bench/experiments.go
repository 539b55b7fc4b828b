// Package bench implements the reproduction harness: one runner per
// experiment in DESIGN.md's index (E1–E16), each regenerating a figure,
// listing, or result row of the paper as text. cmd/snapbench prints them;
// the root-level benchmarks time them.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/blocks"
	"repro/internal/codegen"
	"repro/internal/demos"
	"repro/internal/dist"
	"repro/internal/interp"
	"repro/internal/mapreduce"
	"repro/internal/noaa"
	"repro/internal/omp"
	"repro/internal/sched"
	"repro/internal/survey"
	"repro/internal/value"
	"repro/internal/workers"
)

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func() (string, error)
}

// All returns the experiments in index order.
func All() []Experiment {
	return []Experiment{
		{"e1", "Figure 4: sequential map block", E1},
		{"e2", "Figures 5-6: parallelMap block", E2},
		{"e3", "Figures 7, 9: concession stand, parallel mode", E3},
		{"e4", "Figure 10 + footnote 5: concession stand, sequential mode", E4},
		{"e5", "Figures 11-12: word count via mapReduce", E5},
		{"e6", "Figure 13: NOAA climate averaging via mapReduce", E6},
		{"e7", "Figure 16 / Listing 5: Snap! to C code mapping", E7},
		{"e8", "Figures 18-20 / Listings 6-7: mapReduce to OpenMP", E8},
		{"e9", "Section 5: WCD survey tabulation", E9},
		{"e10", "Section 3.2: worker assignment-policy load balance", E10},
		{"e11", "Section 6 ablation: OpenMP loop schedules", E11},
		{"e12", "Section 6.3: batch submission workflow", E12},
		{"e13", "Section 2: time-sliced concurrency (dragon scripts)", E13},
		{"e14", "Section 6.3 future work: inter-node MapReduce scaling", E14},
		{"e15", "Section 6.1: OpenMP vs pthreads programmability contrast", E15},
		{"e16", "Section 6.3 ablation: FIFO vs EASY-backfill scheduling", E16},
	}
}

// Lookup finds an experiment by id ("e1".."e16").
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == strings.ToLower(id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// E1 reproduces Figure 4: map (× _ 10) over (3 7 8) → (30 70 80).
func E1() (string, error) {
	v, err := demos.EvalBlock(demos.Fig4SeqMap())
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("map (x 10) over [3 7 8]  ->  %s   (paper: [30 70 80])\n", v), nil
}

// E2 reproduces Figures 5–6: parallelMap over 1..100 with ×10, showing the
// first ten input/output pairs (Figure 6) and a worker-count sweep.
func E2() (string, error) {
	var b strings.Builder
	v, err := demos.EvalBlock(demos.Fig5ParallelMap(
		blocks.Numbers(blocks.Num(1), blocks.Num(100)), blocks.Num(4)))
	if err != nil {
		return "", err
	}
	l := v.(*value.List)
	b.WriteString("first ten input/output pairs (Figure 6):\n")
	b.WriteString("  in:  ")
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&b, "%4d", i)
	}
	b.WriteString("\n  out: ")
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&b, "%4s", l.MustItem(i).String())
	}
	b.WriteString("\n\nworker-count sweep (result must be identical):\n")
	for _, w := range []int{1, 2, 4, 8} {
		vw, err := demos.EvalBlock(demos.Fig5ParallelMap(
			blocks.Numbers(blocks.Num(1), blocks.Num(100)), blocks.Num(float64(w))))
		if err != nil {
			return "", err
		}
		match := "ok"
		if !value.Equal(v, vw) {
			match = "MISMATCH"
		}
		fmt.Fprintf(&b, "  workers=%d: len=%d  %s\n", w, vw.(*value.List).Len(), match)
	}
	return b.String(), nil
}

func concessionReport(parallel bool, paperTimer int64) (string, error) {
	res, err := demos.RunConcession(parallel)
	if err != nil {
		return "", err
	}
	mode := "sequential"
	if parallel {
		mode = "parallel"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mode: %s\n", mode)
	cups := make([]string, 0, len(res.FillTimes))
	for cup := range res.FillTimes {
		cups = append(cups, cup)
	}
	sort.Strings(cups)
	for _, cup := range cups {
		fmt.Fprintf(&b, "  %s full at timestep %d\n", cup, res.FillTimes[cup])
	}
	fmt.Fprintf(&b, "timer at completion: %d timesteps  (paper: %d)\n", res.Timer, paperTimer)
	return b.String(), nil
}

// E3 reproduces Figures 7 and 9: the parallel concession stand finishing
// in 3 timesteps.
func E3() (string, error) { return concessionReport(true, 3) }

// E4 reproduces Figure 10 and footnote 5: the sequential concession stand
// finishing in 12 timesteps (9 pouring + 3 interference), cups filling at
// timesteps 3, 7, and 12.
func E4() (string, error) { return concessionReport(false, 12) }

// E5 reproduces Figures 11–12: word count as a sorted list of unique words
// with counts.
func E5() (string, error) {
	sentence := "I want to be what I was when I wanted to be what I am now"
	v, err := demos.EvalBlock(demos.WordCountBlock(sentence))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "input: %q\n", sentence)
	b.WriteString("word counts (sorted by word, Figure 12):\n")
	for _, it := range v.(*value.List).Items() {
		pair := it.(*value.List)
		fmt.Fprintf(&b, "  %-8s %s\n", pair.MustItem(1), pair.MustItem(2))
	}
	return b.String(), nil
}

// E6 reproduces Figure 13 on synthetic NOAA data: Fahrenheit→Celsius map,
// average reduce, per year — the warming trend the students look for.
func E6() (string, error) {
	ds := noaa.Generate(noaa.Config{
		Stations: 5, StartYear: 1990, EndYear: 1999, DaysPerYear: 60,
		TrendFPerYear: 0.5, Seed: 42,
	})
	var b strings.Builder
	b.WriteString("year   mean °C (mapReduce block over NOAA-style data)\n")
	var first, last float64
	years := ds.Years()
	for _, year := range years {
		temps := ds.TempsFForYear(year)
		res, err := mapreduce.Run(temps, mapreduce.FahrenheitToCelsius,
			mapreduce.AvgReduce, mapreduce.Config{Workers: 4})
		if err != nil {
			return "", err
		}
		c, err := value.ToNumber(res[0].Val)
		if err != nil {
			return "", err
		}
		if year == years[0] {
			first = float64(c)
		}
		if year == years[len(years)-1] {
			last = float64(c)
		}
		fmt.Fprintf(&b, "%d   %6.2f\n", year, float64(c))
	}
	fmt.Fprintf(&b, "trend over %d years: %+.2f °C (injected warming recovered)\n",
		len(years)-1, last-first)
	return b.String(), nil
}

// E7 regenerates Listing 5: the C translation of the Figure 16 script.
func E7() (string, error) {
	src, err := codegen.Listing5()
	if err != nil {
		return "", err
	}
	return "Snap! script (Figure 16):\n  " +
		codegen.Figure16Script().Describe() +
		"\n\ngenerated C (Listing 5):\n" + src, nil
}

// E8 regenerates the OpenMP MapReduce artifacts of Figures 18–20 and
// Listings 6–7.
func E8() (string, error) {
	block := blocks.MapReduce(
		blocks.RingOf(blocks.Quotient(
			blocks.Product(blocks.Num(5), blocks.Difference(blocks.Empty(), blocks.Num(32))),
			blocks.Num(9))),
		blocks.RingOf(blocks.Quotient(
			blocks.Combine(blocks.Empty(), blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))),
			blocks.LengthOf(blocks.Empty()))),
		blocks.ListOf(blocks.Num(32), blocks.Num(212), blocks.Num(122)))
	files, err := codegen.MapReduceFiles(block, []float64{32, 212, 122}, 4)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, name := range []string{"kvp.h", "mapreduce.c", "main.c", "Makefile", "job.sbatch"} {
		fmt.Fprintf(&b, "--- %s ---\n%s\n", name, files[name])
	}
	return b.String(), nil
}

// E9 reproduces the §5 survey percentages.
func E9() (string, error) {
	tab := survey.Tabulate(survey.CanonicalWCD())
	var b strings.Builder
	fmt.Fprintf(&b, "respondents: %d (paper: ~100 seventh-grade girls)\n", tab.N)
	fmt.Fprintf(&b, "career choice:      CS %d%%   other %d%%   no answer %d%%   (paper: 29/54/17)\n",
		tab.CareerCSPct, tab.CareerOtherPct, tab.CareerNoAnswerPct)
	fmt.Fprintf(&b, "CS benefits career: %d%% of non-CS respondents            (paper: 57)\n",
		tab.BenefitPct)
	fmt.Fprintf(&b, "impression of CS:   more %d%%   less %d%%   same %d%%        (paper: 86/9/6)\n",
		tab.MoreFavorablePct, tab.LessFavorablePct, tab.SamePct)
	return b.String(), nil
}

// E10 measures how the three element-assignment policies of the worker
// pool balance skewed work: element i costs i units, so a contiguous block
// split is maximally unfair while dynamic self-balances. Reported per
// policy: each worker's virtual cost, the imbalance ratio (max/mean), and
// the virtual speedup (total cost / makespan) — the speedup a multi-core
// browser would see.
func E10() (string, error) {
	const n, w = 4000, 4
	in := value.Range(1, n, 1)
	burn := func(v value.Value) (value.Value, error) {
		x, err := value.ToNumber(v)
		if err != nil {
			return nil, err
		}
		// Real work proportional to the element value, so dynamic
		// assignment genuinely self-balances.
		acc := 0.0
		for i := 0; i < int(x); i++ {
			acc += float64(i)
		}
		_ = acc
		return x, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d skewed elements (cost of element i = i), %d workers\n", n, w)
	fmt.Fprintf(&b, "%-12s %-40s %9s %9s\n", "policy", "per-worker cost (virtual)", "imbalance", "speedup")
	cost := func(i int) int64 { return int64(i + 1) }
	for _, policy := range []workers.Assignment{workers.Block, workers.Interleaved, workers.Dynamic} {
		// Execute the real pool (the code path under test)...
		p := workers.New(in, workers.Options{
			MaxWorkers: w, Assignment: policy, Cost: cost,
		})
		job := p.Map(burn)
		if _, err := job.Wait(); err != nil {
			return "", err
		}
		// ...and report the deterministic virtual-time distribution
		// (wall-clock balance is meaningless on a single-core host;
		// the paper likewise reports virtual timesteps).
		max, costs := omp.SimulateMakespan(n, policy.Schedule(w), cost)
		var total int64
		for _, c := range costs {
			total += c
		}
		mean := float64(total) / float64(len(costs))
		cells := make([]string, len(costs))
		for i, c := range costs {
			cells[i] = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(&b, "%-12s %-40s %8.2fx %8.2fx\n",
			policy, strings.Join(cells, " "),
			float64(max)/mean, float64(total)/float64(max))
	}
	b.WriteString("(virtual speedup = total cost / busiest worker; ideal = worker count)\n")
	return b.String(), nil
}

// E11 ablates the OpenMP loop schedules on the same skewed workload via
// the omp runtime: per schedule, the per-thread virtual cost and makespan.
func E11() (string, error) {
	const n, threads = 4000, 4
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d iterations (cost of iteration i = i), %d threads\n", n, threads)
	fmt.Fprintf(&b, "%-16s %-40s %9s %9s %10s\n", "schedule", "per-thread cost (virtual)", "imbalance", "speedup", "wall")
	cost := func(i int) int64 { return int64(i) }
	for _, cfg := range []omp.ForConfig{
		{Threads: threads, Schedule: omp.Static},
		{Threads: threads, Schedule: omp.Static, Chunk: 64},
		{Threads: threads, Schedule: omp.Dynamic, Chunk: 16},
		{Threads: threads, Schedule: omp.Guided},
	} {
		// Execute the real runtime (timing the code path)...
		start := time.Now()
		omp.For(n, cfg, func(i, tid int) {
			acc := 0.0
			for k := 0; k < i; k++ {
				acc += float64(k)
			}
			_ = acc
		})
		wall := time.Since(start)
		// ...and report the schedule's deterministic virtual-time
		// distribution.
		max, costs := omp.SimulateMakespan(n, cfg, cost)
		var total int64
		for _, c := range costs {
			total += c
		}
		mean := float64(total) / float64(threads)
		cells := make([]string, len(costs))
		for i, c := range costs {
			cells[i] = fmt.Sprintf("%d", c)
		}
		name := cfg.Schedule.String()
		if cfg.Chunk > 0 {
			name = fmt.Sprintf("%s,%d", name, cfg.Chunk)
		}
		fmt.Fprintf(&b, "%-16s %-40s %8.2fx %8.2fx %10s\n",
			name, strings.Join(cells, " "),
			float64(max)/mean, float64(total)/float64(max), wall.Round(time.Microsecond))
	}
	b.WriteString("(wall time is host-dependent; imbalance and virtual speedup are the result)\n")
	return b.String(), nil
}

// E12 walks the §6.3 batch workflow: generate the script, submit to a
// simulated cluster behind a blocking job, monitor, collect.
func E12() (string, error) {
	var b strings.Builder
	script := codegen.BatchScript("snap-mapreduce", 2, 8, 10)
	b.WriteString("generated batch script:\n")
	for _, line := range strings.Split(strings.TrimSpace(script), "\n") {
		b.WriteString("  " + line + "\n")
	}
	c := sched.NewCluster(3, sched.Backfill)
	c.Submit(sched.JobSpec{Name: "blocker", Nodes: 2, Walltime: 4, Duration: 4})
	j, err := c.SubmitScript(script, 3, func() string { return "average temperature: 50 C" })
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nsubmitted as job %d; state while nodes busy: %s\n", j.ID, j.State)
	for c.Now() < 100 && j.State != sched.Completed && j.State != sched.Failed {
		c.Tick()
		if j.State == sched.Running && j.StartTick == c.Now() {
			fmt.Fprintf(&b, "tick %d: job started\n", c.Now())
		}
	}
	out, err := c.Collect(j)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "tick %d: job %s; collected output: %q\n", c.Now(), j.State, out)
	return b.String(), nil
}

// E13 demonstrates §2's concurrency: three scripts of one sprite
// interleave under the round-robin time-sliced scheduler.
func E13() (string, error) {
	p := blocks.NewProject("dragon-interleave")
	p.Globals["log"] = value.NewList()
	sp := p.AddSprite(blocks.NewSprite("Dragon"))
	for _, tag := range []string{"flap", "roar", "fly"} {
		sp.AddScript(blocks.HatGreenFlag, "", blocks.NewScript(
			blocks.Repeat(blocks.Num(4), blocks.Body(
				blocks.AddToList(blocks.Txt(tag), blocks.Var("log")))),
		))
	}
	m := interp.NewMachine(p, nil)
	m.GreenFlag()
	if err := m.Run(0); err != nil {
		return "", err
	}
	logv, _ := m.GlobalFrame().Get("log")
	var b strings.Builder
	b.WriteString("three concurrent scripts, one interpreter thread (Snap!'s model):\n")
	fmt.Fprintf(&b, "  execution order: %s\n", logv)
	fmt.Fprintf(&b, "  scheduler rounds: %d\n", m.Round())
	b.WriteString("  each round runs every live script for one time slice — multi-tasking,\n")
	b.WriteString("  'the illusion of parallel execution' (§2)\n")
	return b.String(), nil
}

// E14 characterizes the inter-node MapReduce of package dist (the paper's
// closing future-work item): for a fixed word-count workload, how shuffle
// volume and reduce-side balance move with the node count — and that the
// result never changes.
func E14() (string, error) {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog again and again ", 50)
	in := value.FromStrings(strings.Fields(text))
	single, err := mapreduce.Run(in, mapreduce.WordCount, mapreduce.SumReduce,
		mapreduce.Config{Workers: 2})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "word count over %d words, %d distinct keys\n", in.Len(), len(single))
	fmt.Fprintf(&b, "%-7s %-10s %-12s %-12s %-10s %s\n",
		"nodes", "shuffled", "bytes", "gathered", "imbalance", "result")
	for _, nodes := range []int{1, 2, 4, 8} {
		res, stats, err := dist.MapReduce(in, mapreduce.WordCount, mapreduce.SumReduce,
			dist.Config{Nodes: nodes, WorkersPerNode: 2})
		if err != nil {
			return "", err
		}
		match := "identical"
		if len(res) != len(single) {
			match = "MISMATCH"
		} else {
			for i := range res {
				if res[i].Key != single[i].Key || !value.Equal(res[i].Val, single[i].Val) {
					match = "MISMATCH"
				}
			}
		}
		fmt.Fprintf(&b, "%-7d %-10d %-12d %-12d %-9.2fx %s\n",
			nodes, stats.ShuffleMessages, stats.ShuffleBytes,
			stats.GatherMessages, stats.Imbalance(), match)
	}
	b.WriteString("(shuffle grows with node count — pairs mapped off their reducer's node;\n")
	b.WriteString(" single node shuffles nothing; result is node-count invariant)\n")
	return b.String(), nil
}

// E15 quantifies §6.1's programmability claim: generate the same map from
// the same block as sequential C, OpenMP C, and pthreads C, and count the
// lines the parallelism costs in each dialect — "the difference between
// the sequential C version and the parallel OpenMP C version is very
// small ... in stark contrast to the complexity of other text-based
// approaches, such as pthreads."
func E15() (string, error) {
	blk := blocks.ParallelMap(
		blocks.RingOf(blocks.Product(blocks.Empty(), blocks.Num(10))),
		blocks.ListOf(blocks.Num(3), blocks.Num(7), blocks.Num(8)),
		blocks.Num(4))
	data := []float64{3, 7, 8}
	seq, err := codegen.SequentialMapProgram(blk, data)
	if err != nil {
		return "", err
	}
	omp, err := codegen.ParallelMapProgram(blk, data, 4)
	if err != nil {
		return "", err
	}
	pth, err := codegen.PthreadsParallelMapProgram(blk, data, 4)
	if err != nil {
		return "", err
	}
	seqN, ompN, pthN := codegen.CountLines(seq), codegen.CountLines(omp), codegen.CountLines(pth)
	var b strings.Builder
	b.WriteString("same block, three generated dialects (non-blank lines):\n")
	fmt.Fprintf(&b, "  sequential C : %3d lines   (baseline)\n", seqN)
	fmt.Fprintf(&b, "  OpenMP C     : %3d lines   (+%d over sequential)\n", ompN, ompN-seqN)
	fmt.Fprintf(&b, "  pthreads C   : %3d lines   (+%d over sequential)\n", pthN, pthN-seqN)
	b.WriteString("\nthe OpenMP delta is the pragma and the thread-count call; the pthreads\n")
	b.WriteString("delta is handles, range structs, create/join, and error paths —\n")
	b.WriteString("the 'stark contrast' of section 6.1, measured.\n")
	return b.String(), nil
}

// E16 compares the two queueing policies of the batch-scheduler substrate
// on a synthetic job mix: EASY backfill should cut mean wait time without
// delaying any job's reservation — the behaviour a Snap!-submitted job
// would actually experience on a shared machine (§6.3's "monitor waiting
// in the queue until execution").
func E16() (string, error) {
	type jobShape struct {
		name     string
		nodes    int
		duration int
	}
	// A mix of wide and narrow jobs; the wide ones create the holes
	// backfill exploits.
	mix := []jobShape{
		{"wide-a", 8, 6}, {"narrow-1", 1, 2}, {"narrow-2", 2, 3},
		{"wide-b", 8, 4}, {"narrow-3", 1, 1}, {"narrow-4", 2, 2},
		{"wide-c", 6, 5}, {"narrow-5", 1, 3}, {"narrow-6", 1, 2},
		{"narrow-7", 2, 4},
	}
	run := func(policy sched.Policy) (makespan int64, meanWait float64, err error) {
		c := sched.NewCluster(8, policy)
		var jobs []*sched.Job
		for _, shape := range mix {
			j, err := c.Submit(sched.JobSpec{
				Name: shape.name, Nodes: shape.nodes,
				Walltime: shape.duration + 1, Duration: shape.duration,
			})
			if err != nil {
				return 0, 0, err
			}
			jobs = append(jobs, j)
		}
		if err := c.RunUntilDone(10000); err != nil {
			return 0, 0, err
		}
		var wait int64
		for _, j := range jobs {
			if j.EndTick > makespan {
				makespan = j.EndTick
			}
			wait += j.StartTick - j.SubmitTick
		}
		return makespan, float64(wait) / float64(len(jobs)), nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "job mix: %d jobs on an 8-node cluster (wide jobs force queue holes)\n", len(mix))
	fmt.Fprintf(&b, "%-10s %10s %12s\n", "policy", "makespan", "mean wait")
	var fifoSpan, bfSpan int64
	for _, policy := range []sched.Policy{sched.FIFO, sched.Backfill} {
		span, wait, err := run(policy)
		if err != nil {
			return "", err
		}
		if policy == sched.FIFO {
			fifoSpan = span
		} else {
			bfSpan = span
		}
		fmt.Fprintf(&b, "%-10s %10d %12.1f\n", policy, span, wait)
	}
	fmt.Fprintf(&b, "backfill saves %d ticks of makespan by filling reservation holes\n",
		fifoSpan-bfSpan)
	return b.String(), nil
}
