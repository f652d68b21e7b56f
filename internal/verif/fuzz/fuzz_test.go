package fuzz

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"govfm/internal/hart"
	"govfm/internal/refmodel"
)

// -seed overrides the deterministic default so failures can be replayed:
//
//	go test ./internal/verif/fuzz -run TestLockstepSmoke -seed 12345
var seedFlag = flag.Int64("seed", 1, "fuzzer seed (failures print the seed to rerun)")

var lockstepProfiles = []string{"visionfive2", "p550"}

// TestLockstepSmoke fuzzes both board profiles for a fixed step budget and
// requires zero divergences, the interpreter twin's included. Engines
// alternate case by case, so the full budget runs at least 150 cases on
// each profile.
func TestLockstepSmoke(t *testing.T) {
	budget := 60000
	if testing.Short() {
		budget = 4000
	}
	f, err := NewFuzzer(lockstepProfiles, *seedFlag)
	if err != nil {
		t.Fatal(err)
	}
	findings := f.RunBudget(budget, 3)
	for _, fd := range findings {
		t.Errorf("seed %d: %s", *seedFlag, fd)
	}
	if t.Failed() {
		t.Fatalf("seed %d: %d divergences in %d cases / %d steps (rerun with -seed %d)",
			*seedFlag, len(findings), f.Cases, f.Steps, *seedFlag)
	}
	if !testing.Short() && f.Cases < 2*150 {
		t.Fatalf("seed %d: only %d cases across both profiles", *seedFlag, f.Cases)
	}
	t.Logf("seed %d: %d cases, %d lockstep steps, %d coverage keys, 0 divergences",
		*seedFlag, f.Cases, f.Steps, f.Coverage())
}

// TestEquivalenceSmoke runs hypervisor-biased p550 cases (guest starting
// states, hfence, VS CSR traffic) on an engine and its interpreter twin
// and requires zero divergences, fast-vs-interp included: the unbiased
// stream of TestLockstepSmoke seldom starts in a guest. The full-size run
// is scripts/verify.sh's hext gate.
func TestEquivalenceSmoke(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 20
	}
	f, err := NewFuzzer([]string{"p550"}, *seedFlag)
	if err != nil {
		t.Fatal(err)
	}
	f.Engines[0].HextBias = true
	for _, fd := range f.RunCases(cases, 3) {
		t.Errorf("seed %d: %s", *seedFlag, fd)
	}
	if f.GuestCases == 0 {
		t.Fatalf("seed %d: none of %d cases started in a guest (V=1)", *seedFlag, f.Cases)
	}
	t.Logf("seed %d: %d cases (%d in a guest), %d lockstep steps, each also on the twin",
		*seedFlag, f.Cases, f.GuestCases, f.Steps)
}

// TestTwinDiffNamesEachField runs one case on an engine and its twin, then
// changes one field at a time on the twin and requires diffTwin to name
// it: a cycle count, a register, a memory byte and a virtual CSR.
func TestTwinDiffNamesEachField(t *testing.T) {
	e, twin, err := newPair("p550")
	if err != nil {
		t.Fatal(err)
	}
	tc := e.GenCase(rand.New(rand.NewSource(*seedFlag)))
	flip := func(m *hart.Machine, addr uint64) {
		b, err := m.Bus.ReadBytes(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		m.Bus.Store(addr, 1, uint64(^b[0]))
	}
	for _, c := range []struct {
		field  string // the start of the first delta's Field
		mutate func()
	}{
		{"native hart0 cycles:", func() { twin.Native.Harts[0].Cycles++ }},
		{"virt hart0 cycles:", func() { twin.Virt.Harts[0].Cycles++ }},
		{"native hart0 x7:", func() { twin.Native.Harts[0].Regs[7]++ }},
		{"virt hart0 x7:", func() { twin.Virt.Harts[0].Regs[7]++ }},
		{fmt.Sprintf("native memory at %#x:", ScratchBase+16), func() { flip(twin.Native, ScratchBase+16) }},
		{fmt.Sprintf("virt memory at %#x:", ProgBase+8), func() { flip(twin.Virt, ProgBase+8) }},
		{"virt-csr mscratch", func() { twin.Ctx.V.Mscratch++ }},
		{"virt-csr hedeleg", func() { twin.Ctx.V.Hedeleg ^= 1 }},
	} {
		if f, _ := runPair(e, twin, tc); f != nil {
			t.Fatalf("seed %d: the case diverges before any change: %s", *seedFlag, f)
		}
		c.mutate()
		ds := diffTwin(e, twin)
		if len(ds) == 0 || !strings.HasPrefix(ds[0].Field, c.field) {
			t.Errorf("changing %s: diffTwin says %v", c.field, ds)
		}
	}
}

// TestEngineDeterministic re-runs one generated case and requires the
// outcome (and step count) to be identical — the foundation minimization
// and reproducers rest on.
func TestEngineDeterministic(t *testing.T) {
	e, err := NewEngine("visionfive2")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seedFlag))
	for i := 0; i < 20; i++ {
		tc := e.GenCase(rng)
		f1, n1 := e.Run(tc)
		f2, n2 := e.Run(tc)
		if n1 != n2 || (f1 == nil) != (f2 == nil) {
			t.Fatalf("seed %d case %d: nondeterministic: steps %d vs %d, finding %v vs %v",
				*seedFlag, i, n1, n2, f1, f2)
		}
		if f1 != nil && f2 != nil && (f1.Where != f2.Where || f1.Step != f2.Step) {
			t.Fatalf("seed %d case %d: nondeterministic finding: %s vs %s",
				*seedFlag, i, f1, f2)
		}
	}
}

// TestCanonicalizeIdempotent checks that canonicalization is a fixpoint:
// legalizing a legalized state changes nothing. Run's install paths depend
// on this (they copy canonical values verbatim).
func TestCanonicalizeIdempotent(t *testing.T) {
	for _, profile := range lockstepProfiles {
		e, err := NewEngine(profile)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(*seedFlag))
		for i := 0; i < 50; i++ {
			tc := e.GenCase(rng) // GenCase canonicalizes
			once, err := tc.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			e.canonicalize(tc)
			twice, _ := tc.Marshal()
			if string(once) != string(twice) {
				t.Fatalf("seed %d %s case %d: canonicalize not idempotent:\n%s\nvs\n%s",
					*seedFlag, profile, i, once, twice)
			}
		}
	}
}

// TestReplayJSONRoundTrip serializes a case and replays it through the
// public JSON entry point used by reproducer files.
func TestReplayJSONRoundTrip(t *testing.T) {
	e, _, err := cachedPair("visionfive2")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seedFlag))
	tc := e.GenCase(rng)
	want, wantSteps := e.Run(tc)
	data, err := tc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if (want == nil) != (got == nil) {
		t.Fatalf("seed %d: replay disagrees: direct=%v replay=%v (steps %d)",
			*seedFlag, want, got, wantSteps)
	}
}

// TestMinimizeWith exercises the descent algorithm against a synthetic
// predicate: the divergence depends on two instruction slots and one
// register; everything else must be stripped.
func TestMinimizeWith(t *testing.T) {
	tc := &TestCase{Profile: "synthetic", Prog: make([]uint32, 32)}
	tc.State = newSyntheticState()
	for i := range tc.Prog {
		tc.Prog[i] = 0x1000 + uint32(i)
	}
	tc.Prog[5] = 0xAAAA
	tc.Prog[20] = 0xBBBB
	tc.State.Regs[7] = 99

	runs := 0
	diverges := func(c *TestCase) bool {
		runs++
		has := func(w uint32) bool {
			for _, x := range c.Prog {
				if x == w {
					return true
				}
			}
			return false
		}
		return has(0xAAAA) && has(0xBBBB) && c.State.Regs[7] == 99
	}
	minimizeWith(diverges, tc)

	for i, w := range tc.Prog {
		switch i {
		case 5:
			if w != 0xAAAA {
				t.Fatalf("slot 5 lost: %#x", w)
			}
		case 20:
			if w != 0xBBBB {
				t.Fatalf("slot 20 lost: %#x", w)
			}
		default:
			if w != nop {
				t.Errorf("slot %d not nopped: %#x", i, w)
			}
		}
	}
	if tc.State.Regs[7] != 99 {
		t.Fatalf("x7 lost: %d", tc.State.Regs[7])
	}
	for i := 1; i < 32; i++ {
		if i != 7 && tc.State.Regs[i] != 0 {
			t.Errorf("x%d not zeroed: %d", i, tc.State.Regs[i])
		}
	}
	if runs == 0 {
		t.Fatal("predicate never consulted")
	}
}

func newSyntheticState() *refmodel.State {
	s := refmodel.NewState()
	for i := 1; i < 32; i++ {
		s.Regs[i] = uint64(i * 1111)
	}
	return s
}

// TestReplayRepros replays every checked-in reproducer under
// testdata/repros. Committed reproducers are regressions for fixed bugs,
// so each must replay with zero divergence.
func TestReplayRepros(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "repros", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no checked-in reproducers")
	}
	caseRE := regexp.MustCompile("(?s)const reproCase_[0-9a-f]+ = `(.*?)`")
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			ms := caseRE.FindAllSubmatch(src, -1)
			if len(ms) == 0 {
				t.Fatalf("%s: no embedded case found", file)
			}
			for _, m := range ms {
				f, err := ReplayJSON(m[1])
				if err != nil {
					t.Fatal(err)
				}
				if f != nil {
					t.Errorf("regression reappeared:\n%s", f)
				}
			}
		})
	}
}
