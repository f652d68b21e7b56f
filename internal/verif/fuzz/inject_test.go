package fuzz

import "testing"

// TestRunInjectionSmoke: 50 injection cases per profile uphold the
// robustness contract, and the run exercises it — faults land, the monitor
// records them, and some cases end in a monitor halt.
func TestRunInjectionSmoke(t *testing.T) {
	for _, p := range []string{"visionfive2", "p550"} {
		rep, err := RunInjection(p, 1, 50)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: cases=%d steps=%d injected=%d halts=%d records=%d",
			p, rep.Cases, rep.Steps, rep.Injected, rep.Halts, rep.Faults)
		for _, f := range rep.Failures {
			t.Errorf("%s: %s", p, f)
		}
		if rep.Cases != 50 || rep.Injected == 0 || rep.Faults == 0 || rep.Halts == 0 {
			t.Errorf("%s: injection exercised nothing: %+v", p, rep)
		}
	}
}
