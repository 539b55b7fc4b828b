// Package mapreduce implements the MapReduce engine behind the paper's
// mapReduce block (§3.4): a map phase over key/value pairs, a sort of the
// intermediate results by key ("as required by the semantics of
// MapReduce", footnote 6), grouping, and a reduce phase — with both map and
// reduce executing in parallel across workers. "Although conceptually
// simple, MapReduce implementations can be quite complex to set up and use.
// Fortunately, these details are hidden in the implementation."
package mapreduce

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/workers"
)

// KVP is a key/value pair, the record type flowing through every phase —
// the struct KVP of the paper's generated kvp.h (Listings 6–7).
type KVP struct {
	Key string
	Val value.Value
}

// String renders "key: value".
func (k KVP) String() string {
	if k.Val == nil {
		return k.Key + ":"
	}
	return k.Key + ": " + k.Val.String()
}

// Mapper maps one input item to one intermediate (key, value) pair: "the
// map function is executed for each item in the supplied list, mapping the
// item to a value".
type Mapper func(item value.Value) (key string, val value.Value, err error)

// Reducer folds all values that share a key into one value. "Unlike the map
// function, the computation it performs may depend upon previous items."
type Reducer func(key string, vals *value.List) (value.Value, error)

// Config tunes a run.
type Config struct {
	// Workers is the parallelism of the map and reduce phases;
	// 0 means workers.DefaultWorkers().
	Workers int
	// Label tags the run's trace span (see internal/obs); the mapReduce
	// block passes the owning session's trace ID through here.
	Label string
}

// Result is the output of a run: one reduced pair per distinct key, sorted
// by key — the "sorted list of unique words ... with the number of times
// the words appear" of Figure 12.
type Result []KVP

// List converts the result to a Snap! list of (key value) pairs. All the
// pair lists are carved out of one backing array (capped sub-slices, so a
// pair growing past its two cells reallocates privately instead of
// clobbering its neighbor).
func (r Result) List() *value.List {
	backing := make([]value.Value, 2*len(r))
	outer := make([]value.Value, len(r))
	for i, kv := range r {
		pair := backing[2*i : 2*i+2 : 2*i+2]
		pair[0], pair[1] = value.Text(kv.Key), kv.Val
		outer[i] = value.AdoptSlice(pair)
	}
	return value.AdoptSlice(outer)
}

// Strings renders each pair.
func (r Result) Strings() []string {
	out := make([]string, len(r))
	for i, kv := range r {
		out[i] = kv.String()
	}
	return out
}

// Run executes the pipeline: parallel map, shuffle (sort by key, group),
// parallel reduce. The map phase reads the input's boxed items, or — when
// the input carries a column and both kernels have registered column
// variants (see columnar.go) — the raw column, so no element is boxed.
// Boxed items and emitted values cross the worker boundary by structured
// clone, matching the Web-Worker discipline of §4. With one worker every
// phase runs inline on the calling goroutine.
func Run(input *value.List, m Mapper, r Reducer, cfg Config) (Result, error) {
	if m == nil {
		m = Identity
	}
	if r == nil {
		r = IdentityReduce
	}
	w := cfg.Workers
	if w <= 0 {
		w = workers.DefaultWorkers()
	}
	if plan, ok := planColumnRun(input, m, r); ok {
		j := columnJobs.Get().(*job[float64])
		j.n, j.src.col = plan.n, plan
		out, err := j.run(w, cfg.Label)
		j.release(&columnJobs)
		return out, err
	}
	j := newBoxedJob(input.Items(), m, r)
	out, err := j.run(w, cfg.Label)
	j.release(&boxedJobs)
	return out, err
}

// MapOnly runs just the parallel map phase, returning the intermediate
// pairs in item order. Package dist uses it to run the map phase locally
// on each simulated cluster node before shuffling by key.
func MapOnly(input *value.List, m Mapper, workers int) ([]KVP, error) {
	if m == nil {
		m = Identity
	}
	j := newBoxedJob(input.Items(), m, nil)
	err := j.mapPhase(max(workers, 1))
	var mid []KVP
	if err == nil {
		mid = make([]KVP, j.n)
		for i := range mid {
			mid[i] = KVP{Key: j.keys[i], Val: j.vals[i]}
		}
	}
	j.release(&boxedJobs)
	return mid, err
}

// ReduceSorted shuffles intermediate pairs by key and runs the parallel
// reduce phase — the second half of Run, exposed for distributed
// execution. mid is left untouched.
func ReduceSorted(mid []KVP, r Reducer, workers int) (Result, error) {
	if r == nil {
		r = IdentityReduce
	}
	j := newBoxedJob(nil, nil, r)
	j.n = len(mid)
	j.keys, j.vals = resize(j.keys, j.n), resize(j.vals, j.n)
	for i, kv := range mid {
		j.keys[i], j.vals[i] = kv.Key, kv.Val
	}
	j.shuffle()
	out, err := j.reducePhase(max(workers, 1))
	j.release(&boxedJobs)
	return out, err
}

// FromKernels adapts sequential kernels to a Mapper/Reducer pair: mcall is
// a keyed map kernel with the mapReduce block's mapper convention applied
// (compile.SeqMapperRing), rcall a reducer kernel called with each group's
// list (compile.SeqRing). The kernels reuse their call environments and
// the pair shares one argument buffer (a run maps every item before it
// reduces), so a pair serves one Workers-1 run at a time; concurrent
// callers pool pairs. The buffer is cleared after each call, so an idle
// pair holds no value.
func FromKernels(mcall func(args []value.Value) (string, value.Value, error), rcall func(args []value.Value) (value.Value, error)) (Mapper, Reducer) {
	var argv [1]value.Value
	m := func(item value.Value) (string, value.Value, error) {
		argv[0] = item
		k, v, err := mcall(argv[:])
		argv[0] = nil
		return k, v, err
	}
	r := func(_ string, vals *value.List) (value.Value, error) {
		argv[0] = vals
		v, err := rcall(argv[:])
		argv[0] = nil
		return v, err
	}
	return m, r
}

// job is one run of the pipeline over values of type V: value.Value for
// boxed items, float64 for columns. Map fills the flat keys/vals arrays,
// the shuffle lays each key's values out contiguously in backing, and
// reduce folds each group into out. Jobs are pooled per value type, so a
// run reuses the working arrays of an earlier one instead of allocating
// them; only backing and out, which escape into the result, are fresh.
type job[V any] struct {
	n      int
	at     func(j *job[V], i int) (string, V, error)                  // item i's pair
	reduce func(j *job[V], key string, vals []V) (value.Value, error) // one group
	src    source

	keys   []string
	vals   []V
	slot   []int32 // each pair's group, numbered by first appearance
	rank   []int32 // first-appearance number -> position in key order
	groups []group // in key order after the shuffle
	index  map[string]int32
	// backing holds every group's values; out is the reduced result.
	backing []V
	out     Result
}

// source is what a job's at and reduce read: the boxed items and kernels,
// or a column plan.
type source struct {
	items []value.Value
	m     Mapper
	r     Reducer
	col   columnPlan
}

// group is one key's run of values, backing[off : off+n].
type group struct {
	key          string
	id           int32 // first-appearance number
	n, off, fill int
}

var (
	boxedJobs  = sync.Pool{New: func() any { return &job[value.Value]{at: boxedAt, reduce: boxedReduce} }}
	columnJobs = sync.Pool{New: func() any { return &job[float64]{at: columnAt, reduce: columnReduce} }}
)

// maxPooled bounds the arrays a job may carry back into its pool, so one
// huge run does not pin its working memory.
const maxPooled = 1 << 16

func newBoxedJob(items []value.Value, m Mapper, r Reducer) *job[value.Value] {
	j := boxedJobs.Get().(*job[value.Value])
	j.n, j.src = len(items), source{items: items, m: m, r: r}
	return j
}

// boxedAt clones the item into the mapper and the emitted value out of it.
func boxedAt(j *job[value.Value], i int) (string, value.Value, error) {
	k, v, err := j.src.m(value.CloneValue(j.src.items[i]))
	return k, value.CloneValue(v), err
}

// boxedReduce hands the reducer its group as a list over the shuffle's
// backing array: the values were cloned out of the map phase and nothing
// else holds them, so the reducer sees private data without another copy.
func boxedReduce(j *job[value.Value], key string, vals []value.Value) (value.Value, error) {
	return j.src.r(key, value.AdoptSlice(vals))
}

func columnAt(j *job[float64], i int) (string, float64, error) { return j.src.col.at(i) }

func columnReduce(j *job[float64], key string, vals []float64) (value.Value, error) {
	return j.src.col.fr(key, vals)
}

// release drops the run's references and returns the job to pool.
func (j *job[V]) release(pool *sync.Pool) {
	clear(j.keys)
	clear(j.vals)
	clear(j.groups)
	clear(j.index)
	j.src, j.backing, j.out = source{}, nil, nil
	if cap(j.keys) <= maxPooled {
		pool.Put(j)
	}
}

// run executes map, shuffle and reduce. Telemetry costs one atomic load
// when the observability switch is off; everything else (and every
// allocation it makes) only runs while it is on.
func (j *job[V]) run(w int, label string) (Result, error) {
	tracing := obs.Enabled()
	var tStart, tMapDone, tShuffleDone time.Time
	if tracing {
		obs.MRRuns.Inc()
		tStart = time.Now()
	}
	if err := j.mapPhase(w); err != nil {
		return nil, err
	}
	if tracing {
		tMapDone = time.Now()
		obs.MRPhaseSeconds.With("map").Observe(tMapDone.Sub(tStart).Seconds())
	}
	j.shuffle()
	if tracing {
		tShuffleDone = time.Now()
		obs.MRPhaseSeconds.With("shuffle").Observe(tShuffleDone.Sub(tMapDone).Seconds())
		if len(j.groups) > 0 {
			// Skew: the largest group over the mean group size. 1 is
			// balanced; the single-key pattern reports the group count.
			maxLen := 0
			for _, g := range j.groups {
				maxLen = max(maxLen, g.n)
			}
			obs.MRBucketSkew.Observe(float64(maxLen) * float64(len(j.groups)) / float64(j.n))
		}
	}
	out, err := j.reducePhase(w)
	if tracing {
		end := time.Now()
		obs.MRPhaseSeconds.With("reduce").Observe(end.Sub(tShuffleDone).Seconds())
		status := "ok"
		if err != nil {
			status = "error"
		}
		obs.RecordSpan(obs.Span{
			ID:    label,
			Kind:  "mapReduce",
			Start: tStart,
			Dur:   end.Sub(tStart),
			Attrs: []obs.Attr{
				obs.AttrInt("items", int64(j.n)),
				obs.AttrInt("pairs", int64(j.n)),
				obs.AttrInt("keys", int64(len(j.groups))),
				obs.AttrInt("workers", int64(w)),
				{Key: "status", Val: status},
			},
		})
	}
	return out, err
}

// phaseGrain is how many records one executor claims per fetch-add in the
// map and reduce phases, amortizing the shared counter the way the worker
// pool's dynamic assignment does; small enough that skewed groups still
// balance across workers.
func phaseGrain(n, w int) int {
	return min(max(n/(w*4), 1), 64)
}

// runPhase runs records [0, n) of the map or reduce step in chunks. One
// executor runs a single chunk inline on the calling goroutine; more claim
// grain-sized chunks off a shared counter on the persistent worker pool.
// An executor stops at its first failing chunk. Chunks are claimed in
// increasing order, so the chunk holding the lowest failing record is
// always run, and reporting the failure of the lowest chunk makes the
// error — the lowest failing item, or the first failing key in key order
// — independent of scheduling.
func (j *job[V]) runPhase(n, w int, reduce bool) error {
	if w = min(w, n); w <= 1 {
		return j.chunk(reduce, 0, n)
	}
	type failure struct {
		lo  int
		err error
	}
	grain := phaseGrain(n, w)
	fails := make([]failure, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	pool := workers.SharedPool()
	wg.Add(w)
	for k := 0; k < w; k++ {
		worker := k
		pool.Submit(func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				if err := j.chunk(reduce, lo, min(lo+grain, n)); err != nil {
					fails[worker] = failure{lo, err}
					return
				}
			}
		})
	}
	wg.Wait()
	first := failure{lo: n}
	for _, f := range fails {
		if f.err != nil && f.lo < first.lo {
			first = f
		}
	}
	return first.err
}

func (j *job[V]) chunk(reduce bool, lo, hi int) error {
	if reduce {
		return j.reduceChunk(lo, hi)
	}
	return j.mapChunk(lo, hi)
}

func (j *job[V]) mapPhase(w int) error {
	j.keys, j.vals = resize(j.keys, j.n), resize(j.vals, j.n)
	return j.runPhase(j.n, w, false)
}

// mapChunk maps items [lo, hi). One deferred recover contains panics for
// the whole chunk; the cursor pins which item raised it.
func (j *job[V]) mapChunk(lo, hi int) (err error) {
	i := lo
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("map item %d: mapper panic: %v", i+1, r)
		}
	}()
	for ; i < hi; i++ {
		k, v, merr := j.at(j, i)
		if merr != nil {
			return fmt.Errorf("map item %d: %w", i+1, merr)
		}
		j.keys[i], j.vals[i] = k, v
	}
	return nil
}

// smallShuffle is the pair count up to which the shuffle finds a key's
// group by linear scan instead of a hash index: for a handful of distinct
// keys the scan is cache-resident and skips the per-key hashing.
const smallShuffle = 64

// shuffle groups the map output by key. "The elements of the intermediate
// result are sorted by the value of the key in between the map function
// and the reduce function" (footnote 6): it counts each key's pairs, sorts
// only the distinct keys, then scatters the values into one backing array
// in emission order. That is what stable-sorting all n pairs and grouping
// adjacent runs produces, but the comparison sort touches only the k
// distinct keys, which for low-cardinality workloads (word count, the
// single-key climate average) removes the dominant O(n log n) term. The
// previous pair's group is remembered, so single-key and run-keyed
// workloads pay one lookup per run of equal keys.
func (j *job[V]) shuffle() {
	hashed := j.n > smallShuffle
	if hashed && j.index == nil {
		j.index = make(map[string]int32)
	}
	j.slot = resize(j.slot, j.n)
	groups := j.groups[:0]
	last := -1
	for i, k := range j.keys {
		g := last
		if g < 0 || groups[g].key != k {
			g = -1
			if hashed {
				if x, ok := j.index[k]; ok {
					g = int(x)
				}
			} else {
				for x := range groups {
					if groups[x].key == k {
						g = x
						break
					}
				}
			}
			if g < 0 {
				g = len(groups)
				groups = append(groups, group{key: k, id: int32(g)})
				if hashed {
					j.index[k] = int32(g)
				}
			}
			last = g
		}
		groups[g].n++
		j.slot[i] = int32(g)
	}
	slices.SortFunc(groups, func(a, b group) int { return strings.Compare(a.key, b.key) })
	j.rank = resize(j.rank, len(groups))
	off := 0
	for x := range groups {
		groups[x].off = off
		off += groups[x].n
		j.rank[groups[x].id] = int32(x)
	}
	j.backing = make([]V, j.n)
	for i, v := range j.vals {
		g := &groups[j.rank[j.slot[i]]]
		j.backing[g.off+g.fill] = v
		g.fill++
	}
	j.groups = groups
}

func (j *job[V]) reducePhase(w int) (Result, error) {
	j.out = make(Result, len(j.groups))
	if err := j.runPhase(len(j.groups), w, true); err != nil {
		return nil, err
	}
	return j.out, nil
}

// reduceChunk reduces groups [lo, hi), with mapChunk's panic containment.
// The group lists are capped sub-slices of backing, so a reducer growing
// its list reallocates privately.
func (j *job[V]) reduceChunk(lo, hi int) (err error) {
	x := lo
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reduce key %q: reducer panic: %v", j.groups[x].key, r)
		}
	}()
	for ; x < hi; x++ {
		g := &j.groups[x]
		v, rerr := j.reduce(j, g.key, j.backing[g.off:g.off+g.n:g.off+g.n])
		if rerr != nil {
			return fmt.Errorf("reduce key %q: %w", g.key, rerr)
		}
		if v == nil {
			v = value.TheNothing
		}
		j.out[x] = KVP{Key: g.key, Val: value.CloneValue(v)}
	}
	return nil
}

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// --- stock mappers and reducers ---

// Identity maps each item to itself under its display string as key — the
// identity function §3.4 notes "passes its input argument through
// unchanged".
func Identity(item value.Value) (string, value.Value, error) {
	return item.String(), item, nil
}

// SingleKey maps every item to one shared key (the empty string), putting
// the whole dataset in one reduction group — how the climate example's
// single average is expressed.
func SingleKey(item value.Value) (string, value.Value, error) {
	return "", item, nil
}

// WordCount maps a word to (word, 1) — the canonical example of Figure 11.
func WordCount(item value.Value) (string, value.Value, error) {
	return item.String(), value.NumInt(1), nil
}

// FahrenheitToCelsius maps a °F reading to ("", °C) for a global average,
// the Figure 13 mapper: out->val = ((5 * (in->val - 32)) / 9).
func FahrenheitToCelsius(item value.Value) (string, value.Value, error) {
	f, err := value.ToNumber(item)
	if err != nil {
		return "", nil, err
	}
	return "", (5 * (f - 32)) / 9, nil
}

// IdentityReduce reports the group's values unchanged (a single value
// collapses to itself).
func IdentityReduce(key string, vals *value.List) (value.Value, error) {
	if vals.Len() == 1 {
		return vals.MustItem(1), nil
	}
	return vals, nil
}

// SumReduce adds the group's values — the word-count reducer.
func SumReduce(key string, vals *value.List) (value.Value, error) {
	var sum value.Number
	for _, v := range vals.Items() {
		n, err := value.ToNumber(v)
		if err != nil {
			return nil, err
		}
		sum += n
	}
	return sum, nil
}

// CountReduce reports the group's size.
func CountReduce(key string, vals *value.List) (value.Value, error) {
	return value.NumInt(vals.Len()), nil
}

// AvgReduce averages the group — the Figure 20 reducer. For small groups
// it uses the same recursive running-average formulation as the paper's
// generated avg() — avg(a, n) = (a[0] + (n-1)·avg(a+1, n-1)) / n — with the
// parenthesization corrected: the C in Listing 6 reads
// `*a + ((count-1)*avg(...))/count`, which drops the division of the first
// element and is not an average. Large groups switch to an iterative mean
// to bound recursion depth.
func AvgReduce(key string, vals *value.List) (value.Value, error) {
	fs, err := vals.Floats()
	if err != nil {
		return nil, err
	}
	if len(fs) == 0 {
		return value.Number(0), nil
	}
	if len(fs) > 4096 {
		var sum float64
		for _, f := range fs {
			sum += f
		}
		return value.Number(sum / float64(len(fs))), nil
	}
	return value.Number(recAvg(fs)), nil
}

func recAvg(a []float64) float64 {
	if len(a) == 1 {
		return a[0]
	}
	return (a[0] + float64(len(a)-1)*recAvg(a[1:])) / float64(len(a))
}
