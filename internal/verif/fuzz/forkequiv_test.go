package fuzz

import "testing"

// TestForkEquivalenceSmoke runs a fixed-seed slice of the fork-equivalence
// suite; the full 400-case sweep is the scripts/verify.sh gate.
func TestForkEquivalenceSmoke(t *testing.T) {
	st, err := RunForkEquivalence([]string{"visionfive2", "p550"}, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cases < 50 {
		t.Fatalf("only %d cases ran", st.Cases)
	}
	for _, m := range st.Mismatches {
		t.Errorf("DIVERGENCE %s", m)
	}
	if st.ForkPages == 0 {
		t.Error("fork images carried no pages; the workload never touched RAM")
	}
}

// TestForkSweepCoversEveryCell checks the fork gate's case → (rig, tier)
// mapping at the verify.sh budget (200 cases per profile), with one and
// with both profiles: every 3*nrigs consecutive cases cover each rig ×
// tier cell exactly once, so every cell gets at least 33 cases.
func TestForkSweepCoversEveryCell(t *testing.T) {
	type cell struct{ rig, tier int }
	for _, profiles := range []int{1, 2} {
		nrigs := profiles * len(forkHartCounts)
		period, cases := 3*nrigs, 200*profiles
		count := map[cell]int{}
		for c := 0; c < cases; c++ {
			rig, fast, sb := forkSweep(c, nrigs)
			if sb && !fast {
				t.Fatalf("case %d: superblocks without the fast path", c)
			}
			tier := 0
			if sb {
				tier = 2
			} else if fast {
				tier = 1
			}
			count[cell{rig, tier}]++
			if c == period-1 && len(count) != period {
				t.Fatalf("%d profile(s): the first %d cases cover only %v", profiles, period, count)
			}
		}
		for rig := 0; rig < nrigs; rig++ {
			for tier := 0; tier < 3; tier++ {
				if n := count[cell{rig, tier}]; n < cases/period {
					t.Errorf("%d profile(s): rig %d tier %d got %d of %d cases", profiles, rig, tier, n, cases)
				}
			}
		}
	}
}
