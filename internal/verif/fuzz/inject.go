package fuzz

import (
	"fmt"
	"math/rand"

	"govfm/internal/inject"
	"govfm/internal/verif"
)

// InjectReport summarizes an injection-mode run: randomized machine states
// and programs from the differential generator, battered by the
// fault-injection engine while the monitor's containment is armed. The
// property under test is robustness, not equivalence: the monitor process
// must never panic, and every monitor-attributed halt must leave a
// structured fault record behind.
type InjectReport struct {
	Profile  string
	Cases    int
	Steps    int
	Injected int
	Halts    int // monitor-attributed halts (each must carry a fault record)
	Faults   int // structured MonitorFaults recorded across all cases
	Failures []string
}

// injectWatchdogBudget is deliberately small: random vM-mode programs never
// launch an OS, so the boot-regime budget is the clock that reaps the
// states injection wedges.
const injectWatchdogBudget = 25_000

// injectCaseSteps bounds one case; several watchdog budgets long so the
// reaper gets its chance.
const injectCaseSteps = 4 * StepBudget

// RunInjection builds a containment-armed engine for the profile and runs
// the given number of injection cases. The returned report's Failures list
// is the verdict: empty means every case upheld the robustness contract.
func RunInjection(profile string, seed int64, cases int) (*InjectReport, error) {
	e, err := NewEngine(profile)
	if err != nil {
		return nil, err
	}
	// The differential engine boots with containment off (lockstep wants
	// divergences visible, not contained). Injection wants the opposite:
	// arm containment and re-boot so the watchdog hook and the firmware
	// boot snapshot exist.
	e.Mon.Opts.Containment = true
	e.Mon.Opts.WatchdogBudget = injectWatchdogBudget
	e.Mon.Boot()
	e.virtBase = e.Virt.Checkpoint()

	rng := rand.New(rand.NewSource(seed))
	rep := &InjectReport{Profile: profile}
	for c := 0; c < cases; c++ {
		e.runInjectCase(rng, rep, c)
	}
	return rep, nil
}

// runInjectCase executes one case. It has its own recover so an escaped
// panic fails the case, not the process — escaping here means the
// monitor's own panic boundary leaked.
func (e *Engine) runInjectCase(rng *rand.Rand, rep *InjectReport, n int) {
	defer func() {
		if r := recover(); r != nil {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("case %d: panic escaped the monitor boundary: %v", n, r))
		}
	}()

	e.Virt.Restore(e.virtBase)
	e.Mon.ResetVirt(e.Ctx)

	tc := e.GenCase(rng)
	loadWindows(e.Virt, tc.Prog)
	verif.Install(e.Mon, e.Ctx, tc.State)

	inj := inject.New(rng.Int63(), e.Mon)
	rep.Cases++
	for step := 0; step < injectCaseSteps; step++ {
		if halted, _ := e.Virt.Halted(); halted {
			break
		}
		if step%97 == 13 {
			inj.Inject()
		}
		e.Virt.Step()
		rep.Steps++
	}
	rep.Injected += inj.Total
	rep.Faults += e.Mon.FaultCount

	if e.Mon.HaltedReason != "" {
		rep.Halts++
		if e.Mon.FaultCount == 0 {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"case %d: monitor halted (%q) without a fault record",
				n, e.Mon.HaltedReason))
		}
	}
}
