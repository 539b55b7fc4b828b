//go:build !race

// The race detector makes sync.Pool drop objects at random, so the pooled
// scratch buffer would show up as allocations there.

package shard

import (
	"testing"

	"repro/internal/server"
)

// TestPlacementKeyAllocs pins the scan's cost: on the fast path the only
// allocation is the 32-byte key, nothing proportional to the body.
func TestPlacementKeyAllocs(t *testing.T) {
	body := mustMarshal(t, server.RunRequest{Project: e17Source(), Format: "SBLK"})
	if n := testing.AllocsPerRun(100, func() { placementKey(body) }); n > 1 {
		t.Fatalf("placementKey allocates %v times per call on the fast path, want at most 1", n)
	}
}
