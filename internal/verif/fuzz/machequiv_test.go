package fuzz

import "testing"

// TestSuperblockEquivalenceSmoke runs a short machine-equivalence batch on
// both profiles across hart counts, fork tiers, timer, SMC and loop cases
// and requires bit-exact agreement with the interpreter. It also requires
// that the superblock tier engaged and ran multi-hart rounds. The
// full-size run is scripts/verify.sh's equiv gate.
func TestSuperblockEquivalenceSmoke(t *testing.T) {
	cases := 100
	if testing.Short() {
		cases = 25
	}
	st := runMachineSmoke(t, 1, cases)
	if st.SBRetired == 0 {
		t.Fatalf("no instructions retired inside superblocks — the tier never engaged: %+v", st)
	}
	if st.MultiHart == 0 || st.SBRounds == 0 {
		t.Fatalf("%d multi-hart cases ran %d rounds: the round never engaged", st.MultiHart, st.SBRounds)
	}
}

// TestForkEquivalenceSmoke runs a second, differently seeded slice of the
// machine harness, which forks every case, and requires that the forked
// parents and their children broke copy-on-write pages after the fork.
func TestForkEquivalenceSmoke(t *testing.T) {
	st := runMachineSmoke(t, 2, 25)
	if st.COWBreaks == 0 {
		t.Fatal("no post-fork COW breaks: no forked machine wrote a shared page")
	}
}

// runMachineSmoke runs the machine harness for `cases` cases on each
// profile and fails t on an error, a short run or any divergence.
func runMachineSmoke(t *testing.T, seed int64, cases int) *MachineStats {
	t.Helper()
	st, err := RunMachineEquiv([]string{"visionfive2", "p550"}, seed, cases)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cases != 2*cases || st.Steps == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	for _, m := range st.Mismatches {
		t.Errorf("DIVERGENCE %s", m)
	}
	t.Logf("machine equivalence: %d cases, %d steps, %d sb-retired, %d sb-rounds, %d COW breaks, %d mismatches",
		st.Cases, st.Steps, st.SBRetired, st.SBRounds, st.COWBreaks, len(st.Mismatches))
	return st
}

// TestForkSweepCoversEveryCell checks the case → (rig, fork tier) mapping
// at the verify.sh budget (400 cases per profile), with one and with both
// profiles: every 3*nrigs consecutive cases cover each rig × tier cell
// exactly once, so every cell gets at least 33 cases.
func TestForkSweepCoversEveryCell(t *testing.T) {
	type cell struct{ rig, tier int }
	for _, profiles := range []int{1, 2} {
		nrigs := profiles * len(machHartCounts)
		period, cases := len(tierNames)*nrigs, 400*profiles
		count := map[cell]int{}
		for c := 0; c < cases; c++ {
			rig, tier := forkSweep(c, nrigs)
			count[cell{rig, tier}]++
			if c == period-1 && len(count) != period {
				t.Fatalf("%d profile(s): the first %d cases cover only %v", profiles, period, count)
			}
		}
		for rig := 0; rig < nrigs; rig++ {
			for tier := range tierNames {
				if n := count[cell{rig, tier}]; n < 33 || n < cases/period {
					t.Errorf("%d profile(s): rig %d tier %d got %d of %d cases", profiles, rig, tier, n, cases)
				}
			}
		}
	}
}
