package fuzz

import "testing"

// TestSuperblockEquivalenceSmoke runs a short interpreter-vs-fastpath-vs-
// superblock batch on both profiles across schedulers, quanta, hart
// counts, timer, and SMC cases and requires bit-exact end-state agreement. The full-size run
// is scripts/verify.sh's superblock gate.
func TestSuperblockEquivalenceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("superblock-equivalence smoke is not short")
	}
	st, err := RunSuperblockEquivalence([]string{"visionfive2", "p550"}, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cases == 0 || st.Steps == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	if st.SBRetired == 0 {
		t.Fatalf("no instructions retired inside superblocks — the tier never engaged: %+v", st)
	}
	if st.MultiHart == 0 || st.SBRounds == 0 {
		t.Fatalf("%d multi-hart cases ran %d rounds: the round never engaged", st.MultiHart, st.SBRounds)
	}
	for _, m := range st.Mismatches {
		t.Errorf("superblock divergence: %s", m)
	}
	t.Logf("superblock equivalence: %d cases, %d steps, %d sb-retired, %d sb-rounds, %d mismatches",
		st.Cases, st.Steps, st.SBRetired, st.SBRounds, len(st.Mismatches))
}
