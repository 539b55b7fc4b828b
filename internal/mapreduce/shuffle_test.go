package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/value"
)

// referenceGroup is the original shuffle — stable sort of all pairs by key,
// then grouping adjacent runs — kept here as the executable specification
// the count-sort-scatter shuffle must match.
func referenceGroup(mid []KVP) []KVP {
	sorted := make([]KVP, len(mid))
	copy(sorted, mid)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var groups []KVP
	for _, kv := range sorted {
		if len(groups) == 0 || groups[len(groups)-1].Key != kv.Key {
			groups = append(groups, KVP{Key: kv.Key, Val: value.NewList()})
		}
		groups[len(groups)-1].Val.(*value.List).Add(kv.Val)
	}
	return groups
}

func TestGroupByKeyMatchesSortedReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rnd.Intn(300)
		keys := rnd.Intn(20) + 1
		mid := make([]KVP, n)
		for i := range mid {
			mid[i] = KVP{
				Key: fmt.Sprintf("k%02d", rnd.Intn(keys)),
				Val: value.NumInt(i),
			}
		}
		// ReduceSorted with the identity-list reducer reports each group's
		// values exactly as the shuffle laid them out.
		got, err := ReduceSorted(mid, func(_ string, vals *value.List) (value.Value, error) {
			return vals, nil
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceGroup(mid)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key {
				t.Fatalf("trial %d group %d: key %q, want %q", trial, i, got[i].Key, want[i].Key)
			}
			if got[i].Val.String() != want[i].Val.String() {
				t.Fatalf("trial %d key %q: vals %s, want %s — same-key values must stay in map-emission order",
					trial, got[i].Key, got[i].Val, want[i].Val)
			}
		}
	}
}
