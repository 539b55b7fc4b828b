package workers

import (
	"testing"
	"testing/quick"

	"repro/internal/omp"
)

// The pool's policies are costed in virtual time by running their OpenMP
// equivalents (Assignment.Schedule) through omp.SimulateMakespan, as E10
// does. These tests hold each policy's simulated schedule to the policy's
// own semantics.

func TestVirtualMakespanUniformCosts(t *testing.T) {
	unit := func(int) int64 { return 1 }
	for _, policy := range []Assignment{Block, Interleaved, Dynamic} {
		mk, per := omp.SimulateMakespan(100, policy.Schedule(4), unit)
		if mk != 25 {
			t.Errorf("%v: makespan = %d, want 25", policy, mk)
		}
		var total int64
		for _, c := range per {
			total += c
		}
		if total != 100 {
			t.Errorf("%v: total = %d", policy, total)
		}
	}
}

func TestVirtualMakespanSkew(t *testing.T) {
	// Linear skew: block is unfair (last block is heaviest), dynamic and
	// interleaved balance.
	cost := func(i int) int64 { return int64(i + 1) }
	blockMk, _ := omp.SimulateMakespan(1000, Block.Schedule(4), cost)
	interMk, _ := omp.SimulateMakespan(1000, Interleaved.Schedule(4), cost)
	dynMk, _ := omp.SimulateMakespan(1000, Dynamic.Schedule(4), cost)
	total := int64(1000 * 1001 / 2)
	ideal := total / 4
	if blockMk <= interMk || blockMk <= dynMk {
		t.Errorf("block (%d) should be worse than interleaved (%d) and dynamic (%d)",
			blockMk, interMk, dynMk)
	}
	if dynMk > ideal+1000 {
		t.Errorf("dynamic makespan %d far from ideal %d", dynMk, ideal)
	}
}

func TestVirtualMakespanEdges(t *testing.T) {
	cost := func(int) int64 { return 1 }
	mk, per := omp.SimulateMakespan(0, Dynamic.Schedule(4), cost)
	var spent int64
	for _, c := range per {
		spent += c
	}
	if mk != 0 || spent != 0 {
		t.Errorf("empty: %d %v", mk, per)
	}
	mk, per = omp.SimulateMakespan(3, Block.Schedule(8), cost)
	if len(per) != 3 || mk != 1 {
		t.Errorf("workers clamp to n: %d %v", mk, per)
	}
	// Zero workers means the default count, as it does for a pool.
	mk, _ = omp.SimulateMakespan(5, Interleaved.Schedule(0), cost)
	want, _ := omp.SimulateMakespan(5, Interleaved.Schedule(omp.DefaultThreads()), cost)
	if mk != want {
		t.Errorf("w=0: makespan %d, want the default-thread makespan %d", mk, want)
	}
}

// Property: for every policy, per-worker costs sum to the total and the
// makespan is at least total/w (a lower bound no schedule can beat).
func TestPropertyMakespanBounds(t *testing.T) {
	f := func(nRaw, wRaw, pRaw uint8) bool {
		n := int(nRaw)%300 + 1
		w := int(wRaw)%8 + 1
		policy := Assignment(int(pRaw) % 3)
		cost := func(i int) int64 { return int64(i%13 + 1) }
		var total int64
		for i := 0; i < n; i++ {
			total += cost(i)
		}
		mk, per := omp.SimulateMakespan(n, policy.Schedule(w), cost)
		var sum int64
		for _, c := range per {
			sum += c
		}
		if sum != total {
			return false
		}
		eff := w
		if eff > n {
			eff = n
		}
		lower := (total + int64(eff) - 1) / int64(eff)
		return mk >= lower && mk <= total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
