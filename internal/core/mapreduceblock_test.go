package core

import (
	"testing"

	"repro/internal/blocks"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/vm"
)

// climateKernels lowers the Figure 13 climate mapReduce — F→C in the map
// ring, combine-sum over length in the reduce ring — the way the bytecode
// machine does, failing the test unless both rings compile to sequential
// kernels.
func climateKernels(t *testing.T) vm.MRCall {
	t.Helper()
	mapRing := &blocks.Ring{Body: blocks.Quotient(
		blocks.Product(blocks.Num(5), blocks.Difference(blocks.Empty(), blocks.Num(32))),
		blocks.Num(9))}
	reduceRing := &blocks.Ring{Body: blocks.Quotient(
		blocks.Combine(blocks.Empty(), blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty()))),
		blocks.LengthOf(blocks.Empty()))}
	if _, ok := compile.SeqMapperRing(ShipRing(mapRing)); !ok {
		t.Fatal("climate map ring should compile to a sequential kernel")
	}
	if _, ok := compile.SeqRing(ShipRing(reduceRing)); !ok {
		t.Fatal("climate reduce ring should compile to a sequential kernel")
	}
	return lowerMapReduce(mapRing, reduceRing)
}

// wordCountKernels lowers the Figure 11 word count the same way.
func wordCountKernels(t *testing.T) vm.MRCall {
	t.Helper()
	mapRing := &blocks.Ring{Body: blocks.ListOf(blocks.Empty(), blocks.Num(1))}
	reduceRing := &blocks.Ring{Body: blocks.Combine(blocks.Empty(),
		blocks.RingOf(blocks.Sum(blocks.Empty(), blocks.Empty())))}
	if _, ok := compile.SeqMapperRing(ShipRing(mapRing)); !ok {
		t.Fatal("word-count map ring should compile to a sequential kernel")
	}
	return lowerMapReduce(mapRing, reduceRing)
}

// TestMapReduceKernelsTelemetry: a small mapReduce whose rings compile
// runs its pooled kernels through the metered engine, so with
// observability on it records the run, all three phases and one span.
func TestMapReduceKernelsTelemetry(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	obs.ResetSpans()
	t.Cleanup(func() { obs.SetEnabled(prev); obs.ResetSpans() })

	call := climateKernels(t)
	phases := []string{"map", "shuffle", "reduce"}
	runs := obs.MRRuns.Value()
	var counts []int64
	for _, ph := range phases {
		counts = append(counts, obs.MRPhaseSeconds.With(ph).Count())
	}
	p := &interp.Process{Machine: &interp.Machine{TraceID: "mr-kernels"}}
	v, poll, err := call(p, value.FromFloats([]float64{32, 212, 122}))
	if err != nil || poll != nil {
		t.Fatalf("sync mapReduce: v=%v poll=%v err=%v", v, poll != nil, err)
	}
	if v.String() != "50" {
		t.Fatalf("climate average = %s, want 50", v)
	}
	if d := obs.MRRuns.Value() - runs; d != 1 {
		t.Errorf("engine_mr_runs_total moved by %d, want 1", d)
	}
	for i, ph := range phases {
		if d := obs.MRPhaseSeconds.With(ph).Count() - counts[i]; d != 1 {
			t.Errorf("engine_mr_phase_seconds{phase=%q} observed %d times, want 1", ph, d)
		}
	}
	if spans := obs.SpansFor("mr-kernels"); len(spans) != 1 || spans[0].Kind != "mapReduce" {
		t.Fatalf("spans for mr-kernels: %+v, want one mapReduce span", spans)
	}
}
