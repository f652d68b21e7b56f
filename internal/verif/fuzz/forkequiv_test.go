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
