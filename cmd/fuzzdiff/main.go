// Command fuzzdiff runs the differential lockstep fuzzer: randomized RV64
// machine states and instruction streams executed simultaneously on a bare
// simulated hart and a monitor-virtualized hart, with both checked against
// the architectural reference model after every retired instruction. Any
// disagreement is a finding; findings are minimized and written out as
// self-contained reproducer test files.
//
// Every lockstep case also runs on a twin engine with the host caches off,
// and the two must end in the same state, cycle counters included.
//
// With -inject N the same generator feeds the fault-injection engine
// instead of the lockstep comparator: N randomized cases run with
// containment armed while faults are injected, and the robustness contract
// (no escaped panics, every monitor halt leaves a fault record) is
// checked.
//
// With -equiv N the machine-equivalence harness runs instead: N cases per
// profile, each on the interpreter, the fast path, the superblock tier and
// a machine forked mid-run, all compared with the interpreter.
//
// With -chaos N the chaos campaign runs instead: N faults per platform ×
// firmware × policy combo, under the classic fault deck and under the TEE
// deck, checking after every fault that the guest makes progress or the
// machine stops with a fault on record, and after every TEE-deck fault the
// confidential-compute invariants (the Dorami wall on every hart, the ACE
// FSM, the monitor-state fingerprint).
//
// The modes (-smoke, -hext, -equiv, -inject, -tee, -chaos) exclude each
// other, and a mode's count must be at least 1. A flag the chosen mode
// would not read is an error too: -budget outside lockstep fuzzing,
// -repros outside the lockstep modes, and -seed or -profile with -smoke.
//
// Usage:
//
//	go run ./cmd/fuzzdiff -smoke                 # fixed-seed CI gate
//	go run ./cmd/fuzzdiff -budget 1000000        # long fuzzing run
//	go run ./cmd/fuzzdiff -profile vf2 -seed 7   # one profile, chosen seed
//	go run ./cmd/fuzzdiff -inject 50             # fault-injection mode
//	go run ./cmd/fuzzdiff -hext 500              # hypervisor-extension lockstep gate
//	go run ./cmd/fuzzdiff -equiv 400             # machine-equivalence gate
//	go run ./cmd/fuzzdiff -chaos 12              # chaos campaign gate, both decks
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"govfm/internal/inject"
	"govfm/internal/verif/fuzz"
)

// modeFlags lists the flags each mode reads beside its own; "" is lockstep
// fuzzing. -smoke pins the seed, the budget and both profiles.
var modeFlags = map[string][]string{
	"":       {"seed", "budget", "profile", "repros"},
	"smoke":  {"repros"},
	"hext":   {"seed", "profile", "repros"},
	"equiv":  {"seed", "profile"},
	"inject": {"seed", "profile"},
	"tee":    {"seed", "profile"},
	"chaos":  {"seed", "profile"},
}

var profileAlias = map[string][]string{
	"vf2":  {"visionfive2"},
	"p550": {"p550"},
	"all":  {"visionfive2", "p550"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program; it returns the process exit code so tests can
// drive it directly. 0 = clean, 1 = findings or injection failures,
// 2 = usage/setup error. The exit code is derived from the raw finding
// count, not the minimized list — minimization caps and failures must
// never turn a red run green.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("fuzzdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		seed    = fs.Int64("seed", 1, "fuzzer seed")
		budget  = fs.Int("budget", 200_000, "total lockstep steps per profile")
		smoke   = fs.Bool("smoke", false, "fixed-seed smoke run: 270k lockstep steps across both profiles, used as a CI gate")
		profile = fs.String("profile", "all", "platform profile: vf2, p550, or all")
		repros  = fs.String("repros", "internal/verif/fuzz/testdata/repros", "directory for minimized reproducer files")
		injectN = fs.Int("inject", 0, "fault-injection mode: run N randomized cases with containment armed instead of lockstep fuzzing")
		equivN  = fs.Int("equiv", 0, "machine-equivalence mode: run N cases per profile on the interpreter, the fast path, the superblock tier and a machine forked mid-run, swept across 1/2/4 harts and the fork's tier, and compare each with the interpreter")
		hextN   = fs.Int("hext", 0, "hypervisor-extension mode: run N H-biased lockstep cases per profile on the H-capable profiles (guest V-states, hfence, VS CSRs)")
		teeN    = fs.Int("tee", 0, "TEE lifecycle mode: run N shadow-model fuzz cases per profile over the ACE confidential-compute FSM instead of lockstep fuzzing")
		chaosN  = fs.Int("chaos", 0, "chaos campaign mode: inject N faults into every platform x firmware x policy combo, under the classic and the TEE fault deck")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// counts holds each counted mode's flag; -smoke is the one bool mode.
	counts := map[string]*int{"hext": hextN, "equiv": equivN, "inject": injectN, "tee": teeN, "chaos": chaosN}
	var modes []string
	fs.Visit(func(f *flag.Flag) {
		if _, counted := counts[f.Name]; counted || f.Name == "smoke" && *smoke {
			modes = append(modes, "-"+f.Name)
		}
	})
	if len(modes) > 1 {
		fmt.Fprintf(errw, "fuzzdiff: %s select different modes; pick one\n", strings.Join(modes, " and "))
		return 2
	}
	mode, what := "", "lockstep fuzzing"
	if len(modes) == 1 {
		mode, what = modes[0][1:], modes[0]
	}
	if n, counted := counts[mode]; counted && *n < 1 {
		fmt.Fprintf(errw, "fuzzdiff: -%s %d runs nothing (want at least 1)\n", mode, *n)
		return 2
	}
	// A flag the mode does not read would be ignored without a word.
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != mode && !slices.Contains(modeFlags[mode], f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		fmt.Fprintf(errw, "fuzzdiff: %s does not read %s\n", what, strings.Join(stray, " "))
		return 2
	}
	if *budget < 1 {
		fmt.Fprintf(errw, "fuzzdiff: -budget %d runs no lockstep step (want at least 1)\n", *budget)
		return 2
	}

	profiles, ok := profileAlias[*profile]
	if !ok {
		fmt.Fprintf(errw, "fuzzdiff: unknown profile %q (want vf2, p550, or all)\n", *profile)
		return 2
	}
	switch mode {
	case "smoke":
		*budget = 135_000 // per profile: ~740 cases on each, seed 1
	case "chaos":
		return runChaos(profiles, *seed, *chaosN, out, errw)
	case "tee":
		return runTEE(profiles, *seed, *teeN, out, errw)
	case "equiv":
		return runEquiv(profiles, *seed, *equivN, out, errw)
	case "inject":
		return runInject(profiles, *seed, *injectN, out, errw)
	}

	if mode == "hext" && *profile == "all" {
		profiles = []string{"p550"} // the H-capable profile
	}
	rawFindings := 0
	totalSteps := 0
	start := time.Now()
	for i, p := range profiles {
		f, err := fuzz.NewFuzzer([]string{p}, *seed+int64(i))
		if err != nil {
			fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
			return 2
		}
		t0 := time.Now()
		var findings []*fuzz.Finding
		if mode == "hext" {
			// Hypervisor-extension mode: case-denominated, with the
			// generator biased toward the H surface — guest (V=1) starting
			// states, hfence, VS CSR traffic, dense hedeleg/hvip delegation.
			if !f.Engines[0].VirtCfg.HasH {
				fmt.Fprintf(errw, "fuzzdiff: profile %q has no hypervisor extension (use -profile p550)\n", p)
				return 2
			}
			f.Engines[0].HextBias = true
			findings = f.RunCases(*hextN, 5)
		} else {
			findings = f.RunBudget(*budget, 5)
		}
		dt := time.Since(t0)
		fmt.Fprintf(out, "%-12s seed=%d cases=%d guest-cases=%d steps=%d coverage=%d corpus=%d findings=%d (%.1fs, %.0f steps/s)\n",
			p, *seed+int64(i), f.Cases, f.GuestCases, f.Steps, f.Coverage(), f.CorpusSize(0),
			len(findings), dt.Seconds(), float64(f.Steps)/dt.Seconds())
		totalSteps += f.Steps
		rawFindings += len(f.Findings)
		for _, fd := range findings {
			fmt.Fprintf(out, "\n=== DIVERGENCE (%s) ===\n%s\n", p, fd)
			path, err := fuzz.WriteRepro(*repros, fd)
			if err != nil {
				fmt.Fprintf(errw, "fuzzdiff: writing reproducer: %v\n", err)
				continue
			}
			fmt.Fprintf(out, "minimized reproducer written to %s\n", path)
		}
	}
	fmt.Fprintf(out, "total: %d lockstep steps across %d profile(s) in %.1fs, %d divergence(s)\n",
		totalSteps, len(profiles), time.Since(start).Seconds(), rawFindings)
	if rawFindings > 0 {
		return 1
	}
	return 0
}

// runTEE drives the TEE lifecycle mode: seeded random operation sequences
// over the ACE confidential-compute FSM, each checked against an
// independent shadow model, the policy's structural invariants, and the
// Dorami monitor wall after every operation.
func runTEE(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	t0 := time.Now()
	rep, err := fuzz.RunTEE(profiles, seed, cases)
	if err != nil {
		fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "tee: %d cases, %d lifecycle ops, %d violations rejected, %d heavy switches, %d failure(s) across %d profile(s) in %.1fs\n",
		rep.Cases, rep.Ops, rep.Violations, rep.HeavySwitches, len(rep.Failures),
		len(profiles), time.Since(t0).Seconds())
	for _, f := range rep.Failures {
		fmt.Fprintf(out, "  FAIL %s\n", f)
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	if rep.Violations == 0 || rep.HeavySwitches == 0 {
		// A TEE sweep that never tripped a guard or crossed the boundary
		// exercised nothing; refuse to count it as a pass.
		fmt.Fprintf(errw, "fuzzdiff: tee sweep exercised no guards (violations=%d, heavy switches=%d)\n",
			rep.Violations, rep.HeavySwitches)
		return 2
	}
	return 0
}

// runChaos drives the chaos campaign over every combo of the chosen
// profiles, under both fault decks.
func runChaos(profiles []string, seed int64, faults int, out, errw io.Writer) int {
	t0 := time.Now()
	rep, err := inject.RunCampaign(inject.CampaignConfig{
		Seed:           seed,
		Platforms:      profiles,
		FaultsPerCombo: faults,
	})
	if err != nil {
		fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
		return 2
	}
	fmt.Fprint(out, rep.Format())
	fmt.Fprintf(out, "campaign: %d combos in %.1fs\n", len(rep.Results), time.Since(t0).Seconds())
	code := 0
	for _, r := range rep.Results {
		combo := strings.Join([]string{r.Deck, r.Platform, r.Firmware, r.Policy}, "/")
		for _, f := range r.Failures {
			fmt.Fprintf(out, "FAILURE %s: %s\n", combo, f)
			code = 1
		}
		if !r.HashIntact {
			fmt.Fprintf(out, "FAILURE %s: sandbox integrity hash changed\n", combo)
			code = 1
		}
	}
	return code
}

// runInject drives the fault-injection mode across the chosen profiles.
func runInject(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	failed := false
	for i, p := range profiles {
		rep, err := fuzz.RunInjection(p, seed+int64(i), cases)
		if err != nil {
			fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "%-12s inject: cases=%d steps=%d faults-injected=%d monitor-halts=%d fault-records=%d failures=%d\n",
			p, rep.Cases, rep.Steps, rep.Injected, rep.Halts, rep.Faults, len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Fprintf(out, "  FAIL %s\n", f)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// sbMinChainCases is the run size from which the machine-equivalence mode
// fails when no case chained one block into another, when that many
// multi-hart cases never ran a multi-hart round, or when that many cases
// never hit a translated TLB entry, never changed a PMP verdict, never
// had an access answered by the host tier or never stored through a host
// entry beside watched lines: a run that large without one of them proves
// nothing about it.
const sbMinChainCases = 100

// runEquiv drives the machine-equivalence mode: each randomized case runs
// from one initial state on the interpreter, the fast path and the
// superblock tier, and on a parent forked mid-run and its child, with a
// live wall clock. Any divergence from the interpreter (cycle counters
// included) is a failure, as is a run of sbMinChainCases or more cases that
// never chained, hit a translated TLB entry, changed a PMP verdict, hit a
// host entry or stored through one into a page with watched lines, or of
// as many multi-hart cases that never ran a round.
func runEquiv(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	t0 := time.Now()
	st, err := fuzz.RunMachineEquiv(profiles, seed, cases)
	if err != nil {
		fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "equiv: %d cases (%d multi-hart), %d interp steps, %d sb-retired, %d sb-chains, %d sb-rounds, %d code invalidations, %d code-page data writes, %d post-fork COW breaks, %d sv39 cases, %d tlb hits, %d host hits, %d watched host stores, %d late-code cases, %d relink cases, %d aimed timers, %d pmp-churn cases, %d verdict changes, %d model probes, %d divergence(s) across %d profile(s) in %.1fs\n",
		st.Cases, st.MultiHart, st.Steps, st.SBRetired, st.SBChains, st.SBRounds,
		st.CodeInvalidations, st.CodePageDataWrites, st.COWBreaks,
		st.Sv39, st.TLBHits, st.HostHits, st.HostWatchedHits, st.LateCode, st.Relink, st.AimedTimers, st.Churn, st.VerdictChanges, st.ModelProbes,
		len(st.Mismatches), len(profiles), time.Since(t0).Seconds())
	for _, m := range st.Mismatches {
		fmt.Fprintf(out, "  DIVERGENCE %s\n", m)
	}
	if len(st.Mismatches) > 0 {
		return 1
	}
	if st.Cases >= sbMinChainCases && st.SBChains == 0 {
		fmt.Fprintf(out, "  NO CHAINS in %d cases: the gate did not exercise block chaining\n", st.Cases)
		return 1
	}
	if st.MultiHart >= sbMinChainCases && st.SBRounds == 0 {
		fmt.Fprintf(out, "  NO ROUNDS in %d multi-hart cases: the gate did not exercise multi-hart rounds\n", st.MultiHart)
		return 1
	}
	for _, c := range []struct {
		none bool
		what string
	}{
		{st.TLBHits == 0, "NO PAGING in %d cases: no access hit a translated TLB entry\n"},
		{st.VerdictChanges == 0, "NO VERDICT CHURN in %d cases: no PMP write changed a verdict\n"},
		{st.HostHits == 0, "NO HOST HITS in %d cases: the host tier answered no access\n"},
		{st.HostWatchedHits == 0, "NO WATCHED HOST STORES in %d cases: no host store landed beside watched lines\n"},
	} {
		if st.Cases >= sbMinChainCases && c.none {
			fmt.Fprintf(out, "  "+c.what, st.Cases)
			return 1
		}
	}
	return 0
}
