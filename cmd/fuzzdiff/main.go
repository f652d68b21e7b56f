// Command fuzzdiff runs the differential lockstep fuzzer: randomized RV64
// machine states and instruction streams executed simultaneously on a bare
// simulated hart and a monitor-virtualized hart, with both checked against
// the architectural reference model after every retired instruction. Any
// disagreement is a finding; findings are minimized and written out as
// self-contained reproducer test files.
//
// With -inject N the same generator feeds the fault-injection engine
// instead of the lockstep comparator: N randomized cases run with
// containment armed while faults are injected, and the robustness contract
// (no escaped panics, every monitor halt leaves a fault record) is
// checked.
//
// Usage:
//
//	go run ./cmd/fuzzdiff -smoke                 # fixed-seed CI gate
//	go run ./cmd/fuzzdiff -budget 1000000        # long fuzzing run
//	go run ./cmd/fuzzdiff -profile vf2 -seed 7   # one profile, chosen seed
//	go run ./cmd/fuzzdiff -inject 50             # fault-injection mode
//	go run ./cmd/fuzzdiff -sched both            # seq-vs-par scheduler equivalence
//	go run ./cmd/fuzzdiff -hext -smoke           # hypervisor-extension lockstep gate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"govfm/internal/verif"
	"govfm/internal/verif/fuzz"
)

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
		seed     = fs.Int64("seed", 1, "fuzzer seed")
		budget   = fs.Int("budget", 200_000, "total lockstep steps per profile")
		smoke    = fs.Bool("smoke", false, "fixed-seed smoke run: 100k+ steps across both profiles, used as a CI gate")
		profile  = fs.String("profile", "all", "platform profile: vf2, p550, or all")
		repros   = fs.String("repros", "internal/verif/fuzz/testdata/repros", "directory for minimized reproducer files")
		injectN  = fs.Int("inject", 0, "fault-injection mode: run N randomized cases with containment armed instead of lockstep fuzzing")
		fastpath = fs.String("fastpath", "on", "host acceleration caches: on, off, or both (both = equivalence mode, every case run fast and slow and compared)")
		equivN   = fs.Int("equiv-cases", 1000, "cases per profile in -fastpath=both and -sched=both equivalence modes")
		sched    = fs.String("sched", "", "scheduler equivalence: both = every multi-hart case run under the sequential and parallel schedulers and compared")
		sb       = fs.String("superblock", "", "superblock equivalence: both = every case run on the interpreter, the fast path, and the superblock tier and compared")
		forkN    = fs.Int("fork", 0, "fork-equivalence mode: run N cases per profile, each forked mid-run and compared bit-for-bit against a cold replay, swept across schedulers and fastpath settings")
		hext     = fs.Bool("hext", false, "hypervisor-extension mode: H-biased lockstep fuzzing on the H-capable profiles (guest V-states, hfence, VS CSRs)")
		hextN    = fs.Int("hext-cases", 500, "cases per profile in -hext mode")
		teeN     = fs.Int("tee", 0, "TEE lifecycle mode: run N shadow-model fuzz cases per profile over the ACE confidential-compute FSM instead of lockstep fuzzing")
		server   = fs.String("server", "", "run the fuzz campaign through a vfmd fleet server at this base URL (e.g. http://127.0.0.1:9400) instead of in-process")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	profiles, ok := profileAlias[*profile]
	if !ok {
		fmt.Fprintf(errw, "fuzzdiff: unknown profile %q (want vf2, p550, or all)\n", *profile)
		return 2
	}
	if *smoke {
		*seed = 1
		*budget = 60_000 // per profile; ≥100k total across both
		profiles = profileAlias["all"]
	}

	if *hext {
		if *profile == "all" {
			profiles = []string{"p550"} // the H-capable profile
		}
		return runHext(profiles, *seed, *hextN, *repros, out, errw)
	}

	if *teeN > 0 {
		return runTEE(profiles, *seed, *teeN, out, errw)
	}

	if *forkN > 0 {
		return runForkEquiv(profiles, *seed, *forkN, out, errw)
	}

	if *server != "" {
		return runServerCampaign(*server, "fuzz", profiles, *seed, *budget, out, errw)
	}

	if *injectN > 0 {
		return runInject(profiles, *seed, *injectN, out, errw)
	}

	switch *sched {
	case "":
	case "both":
		return runSchedEquiv(profiles, *seed, *equivN, out, errw)
	default:
		fmt.Fprintf(errw, "fuzzdiff: unknown -sched %q (want both)\n", *sched)
		return 2
	}

	switch *sb {
	case "":
	case "both":
		return runSBEquiv(profiles, *seed, *equivN, out, errw)
	default:
		fmt.Fprintf(errw, "fuzzdiff: unknown -superblock %q (want both)\n", *sb)
		return 2
	}

	switch *fastpath {
	case "on", "off":
		fuzz.DefaultFastPath = *fastpath == "on"
	case "both":
		return runEquiv(profiles, *seed, *equivN, out, errw)
	default:
		fmt.Fprintf(errw, "fuzzdiff: unknown -fastpath %q (want on, off, or both)\n", *fastpath)
		return 2
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
		findings := f.RunBudget(*budget, 5)
		dt := time.Since(t0)
		fmt.Fprintf(out, "%-12s seed=%d cases=%d steps=%d coverage=%d corpus=%d findings=%d (%.1fs, %.0f steps/s)\n",
			p, *seed+int64(i), f.Cases, f.Steps, f.Coverage(), f.CorpusSize(0),
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

// runHext drives the hypervisor-extension mode: the same three-way
// lockstep comparison as the default mode, but case-denominated and with
// the generator biased toward the H surface — guest (V=1) starting
// states, hfence, VS CSR traffic, dense hedeleg/hvip delegation. Any
// architectural or cycle-count divergence between the native hart, the
// monitor-virtualized hart, and the reference model is a finding.
func runHext(profiles []string, seed int64, cases int, repros string, out, errw io.Writer) int {
	rawFindings := 0
	start := time.Now()
	for i, p := range profiles {
		f, err := fuzz.NewFuzzer([]string{p}, seed+int64(i))
		if err != nil {
			fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
			return 2
		}
		if !f.Engines[0].VirtCfg.HasH {
			fmt.Fprintf(errw, "fuzzdiff: profile %q has no hypervisor extension (use -profile p550)\n", p)
			return 2
		}
		f.Engines[0].HextBias = true
		t0 := time.Now()
		findings := f.RunCases(cases, 5)
		dt := time.Since(t0)
		fmt.Fprintf(out, "%-12s hext: seed=%d cases=%d guest-cases=%d steps=%d coverage=%d findings=%d (%.1fs)\n",
			p, seed+int64(i), f.Cases, f.GuestCases, f.Steps, f.Coverage(), len(findings), dt.Seconds())
		rawFindings += len(f.Findings)
		for _, fd := range findings {
			fmt.Fprintf(out, "\n=== DIVERGENCE (%s) ===\n%s\n", p, fd)
			path, err := fuzz.WriteRepro(repros, fd)
			if err != nil {
				fmt.Fprintf(errw, "fuzzdiff: writing reproducer: %v\n", err)
				continue
			}
			fmt.Fprintf(out, "minimized reproducer written to %s\n", path)
		}
	}
	fmt.Fprintf(out, "hext: %d divergence(s) across %d profile(s) in %.1fs\n",
		rawFindings, len(profiles), time.Since(start).Seconds())
	if rawFindings > 0 {
		return 1
	}
	return 0
}

// runForkEquiv drives the fork-equivalence mode: each case runs a parent,
// forks it mid-run, and compares child and post-fork parent bit-for-bit
// (cycle counters included) against a cold replay of the same trajectory,
// swept across both schedulers and both fastpath settings.
func runForkEquiv(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	t0 := time.Now()
	st, err := verif.RunForkEquivalence(profiles, seed, cases)
	if err != nil {
		fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "fork-equivalence: %d cases, %d steps, %d image pages, %d divergence(s) across %d profile(s) in %.1fs\n",
		st.Cases, st.Steps, st.ForkPages, len(st.Mismatches), len(profiles), time.Since(t0).Seconds())
	for _, m := range st.Mismatches {
		fmt.Fprintf(out, "  DIVERGENCE %s\n", m)
	}
	if len(st.Mismatches) > 0 {
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

// runSchedEquiv drives the scheduler-equivalence mode: each randomized
// multi-hart case runs under the sequential round-robin and the parallel
// quantum scheduler, and any divergence in per-hart end state (cycle
// counters included) or machine halt state is a failure.
func runSchedEquiv(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	t0 := time.Now()
	st, err := fuzz.RunSchedEquivalence(profiles, seed, cases)
	if err != nil {
		fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "sched-equivalence: %d cases, %d seq steps, %d divergence(s) across %d profile(s) in %.1fs\n",
		st.Cases, st.Steps, len(st.Mismatches), len(profiles), time.Since(t0).Seconds())
	for _, m := range st.Mismatches {
		fmt.Fprintf(out, "  DIVERGENCE %s\n", m)
	}
	if len(st.Mismatches) > 0 {
		return 1
	}
	return 0
}

// sbMinChainCases is the run size from which the superblock-equivalence
// mode fails when no case chained one block into another, or when that
// many multi-hart cases never ran a multi-hart round: a run that large
// without either proves nothing about it.
const sbMinChainCases = 100

// runSBEquiv drives the superblock-equivalence mode: each randomized case
// runs three times from the identical initial state — on the plain
// interpreter, on the fast path without superblocks, and on the full stack
// — under the same scheduler with a live wall clock, and any divergence in
// end state (cycle counters included) is a failure, as is a run of
// sbMinChainCases or more cases that never chained, or of as many
// multi-hart cases that never ran a round.
func runSBEquiv(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	t0 := time.Now()
	st, err := fuzz.RunSuperblockEquivalence(profiles, seed, cases)
	if err != nil {
		fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "superblock-equivalence: %d cases (%d multi-hart), %d interp steps, %d sb-retired, %d sb-chains, %d sb-rounds, %d code invalidations, %d code-page data writes, %d divergence(s) across %d profile(s) in %.1fs\n",
		st.Cases, st.MultiHart, st.Steps, st.SBRetired, st.SBChains, st.SBRounds,
		st.CodeInvalidations, st.CodePageDataWrites,
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
	return 0
}

// runEquiv drives the fastpath-equivalence mode: each case runs twice, with
// host caches on and off, and any architectural or cycle-count divergence
// is a failure.
func runEquiv(profiles []string, seed int64, cases int, out, errw io.Writer) int {
	t0 := time.Now()
	st, err := fuzz.RunEquivalence(profiles, seed, cases)
	if err != nil {
		fmt.Fprintf(errw, "fuzzdiff: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "fastpath-equivalence: %d cases, %d lockstep steps, %d divergence(s) across %d profile(s) in %.1fs\n",
		st.Cases, st.Steps, len(st.Mismatches), len(profiles), time.Since(t0).Seconds())
	for _, m := range st.Mismatches {
		fmt.Fprintf(out, "  DIVERGENCE %s\n", m)
	}
	if len(st.Mismatches) > 0 {
		return 1
	}
	return 0
}
