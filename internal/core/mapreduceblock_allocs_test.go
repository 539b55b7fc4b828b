//go:build !race

// The race detector makes sync.Pool drop pooled objects at random, so
// allocation counts are only meaningful without it.

package core

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/value"
)

// TestMapReduceKernelsAllocs holds the small compiled mapReduce to its
// allocation budget with observability off: the pooled kernels and the
// engine's pooled working arrays leave only the kernels' own results, the
// shuffle's backing array, the group lists and the result. The ceilings
// are what the former dedicated sequential engine allocated for the same
// calls; folding it into Run must not cost more.
func TestMapReduceKernelsAllocs(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(false)
	t.Cleanup(func() { obs.SetEnabled(prev) })

	p := &interp.Process{}
	cases := []struct {
		name    string
		call    func(*interp.Process, value.Value) (value.Value, func() (value.Value, bool, error), error)
		input   *value.List
		ceiling float64
	}{
		{"climate", climateKernels(t), value.FromFloats([]float64{32, 212, 122, 50, 60, 70}), 11},
		{"word count", wordCountKernels(t),
			value.FromStrings([]string{"the", "quick", "brown", "fox", "the", "lazy", "dog", "the", "end"}), 34},
	}
	for _, c := range cases {
		if _, _, err := c.call(p, c.input); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := c.call(p, c.input); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.ceiling {
			t.Errorf("%s: %.1f allocs per call, want <= %.0f", c.name, allocs, c.ceiling)
		}
	}
}
