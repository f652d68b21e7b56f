package inject

import (
	"strings"
	"testing"

	"govfm"
	"govfm/internal/core"
	"govfm/internal/policy/sandbox"
)

// buildContained builds a gosbi system with containment and the watchdog
// enabled, the configuration every containment test starts from.
func buildContained(t *testing.T, budget uint64, policy govfm.Policy) *govfm.System {
	t.Helper()
	sys, err := govfm.New(govfm.Config{
		Platform:       "visionfive2",
		Harts:          1,
		Kernel:         govfm.BootKernel(1, 400, 6, 120),
		Virtualize:     true,
		Policy:         policy,
		Containment:    true,
		WatchdogBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// warmup runs the system until the OS is demonstrably executing.
func warmup(t *testing.T, sys *govfm.System) {
	t.Helper()
	h := sys.Machine.Harts[0]
	if !sys.Machine.RunUntil(func() bool { return h.SInstret > 64 }, 3_000_000) {
		t.Fatalf("OS never reached steady state (sinstret=%d)", h.SInstret)
	}
}

// TestChaosSmoke is the in-process version of `fuzzdiff -chaos`: a seeded
// sweep over every firmware × policy combination on one platform, under
// both decks, asserting the containment contract — every fault is
// absorbed, contained, or ends in a reported halt; none wedges the machine.
func TestChaosSmoke(t *testing.T) {
	rep, err := RunCampaign(CampaignConfig{
		Seed:           7,
		Platforms:      []string{"visionfive2"},
		FaultsPerCombo: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Eight combinations per deck: rtos × sandbox is skipped, since
	// govfm.New rejects it.
	if want := 4 * 8 * 2; rep.TotalInjected != want {
		t.Errorf("injected %d faults, want %d", rep.TotalInjected, want)
	}
	for _, r := range rep.Results {
		for _, f := range r.Failures {
			t.Errorf("%s/%s/%s/%s: %s", r.Deck, r.Platform, r.Firmware, r.Policy, f)
		}
		if !r.HashIntact {
			t.Errorf("%s/%s/%s/%s: integrity hash changed", r.Deck, r.Platform, r.Firmware, r.Policy)
		}
	}
}

// TestInjectorDeterminism: the same seed on the same machine state produces
// the same fault sequence — the property every reproduction relies on.
func TestInjectorDeterminism(t *testing.T) {
	var seqs [2][]string
	for round := 0; round < 2; round++ {
		sys := buildContained(t, 2_000_000, nil)
		warmup(t, sys)
		inj := New(42, sys.Monitor)
		for i := 0; i < 20; i++ {
			f := inj.Inject()
			seqs[round] = append(seqs[round], f.String())
		}
	}
	for i := range seqs[0] {
		if seqs[0][i] != seqs[1][i] {
			t.Fatalf("fault %d diverged:\n  %s\n  %s", i, seqs[0][i], seqs[1][i])
		}
	}
}

// TestWatchdogDetectionLatency asserts the acceptance bound: a stuck
// firmware (here: one that revoked the OS's entire memory grant, starving
// it in a fault loop the monitor never sees a trap from) is detected
// within the configured cycle budget, plus bounded detection slack.
func TestWatchdogDetectionLatency(t *testing.T) {
	const budget = 200_000
	sys := buildContained(t, budget, nil)
	warmup(t, sys)
	mon := sys.Monitor
	ctx := mon.Ctx[0]
	h := sys.Machine.Harts[0]

	// Rogue-firmware PMP programming: wipe every virtual PMP entry. In the
	// OS world no entry matches, so S-mode is denied all memory.
	for i := 0; i < ctx.V.PMP.NumEntries(); i++ {
		ctx.V.PMP.ForceCfg(i, 0)
		ctx.V.PMP.ForceAddr(i, 0)
	}
	mon.ReinstallPMP(ctx)
	injected := h.Cycles

	if !sys.Machine.RunUntil(func() bool { return mon.FaultCount > 0 }, 2_000_000) {
		t.Fatal("watchdog never fired on a starved OS")
	}
	f := mon.Faults[0]
	if f.Kind != core.FaultWatchdog {
		t.Fatalf("first fault is %v, want watchdog: %v", f.Kind, f)
	}
	latency := f.Cycles - injected
	if latency > budget+20_000 {
		t.Errorf("detection latency %d exceeds budget %d + slack", latency, budget)
	}
	if latency+5_000 < budget {
		t.Errorf("detection latency %d implausibly below budget %d", latency, budget)
	}
	if !f.Contained {
		t.Errorf("watchdog fault not contained: %v", f)
	}
	if f.Dump == "" {
		t.Error("fault record has no state dump")
	}
	if !ctx.Degraded {
		t.Error("starved OS should have pushed the monitor into degraded mode")
	}
	// The recovered OS must actually resume: the degraded-mode virtual PMP
	// grants memory again. The kernel may notice the disruption and take its
	// failure exit — that is still the OS running; what containment rules
	// out is a silent wedge.
	base := h.SInstret
	sys.Run(1_000_000)
	halted, reason := sys.Machine.Halted()
	if h.SInstret == base && !(halted && strings.HasPrefix(reason, "guest-exit")) {
		t.Fatalf("OS did not resume after containment (sinstret %d->%d, halted=%v %q)",
			base, h.SInstret, halted, reason)
	}
}

// TestContainmentRestartDuringBoot: a double fault before the OS launches
// restarts the firmware from its boot snapshot, and the boot then completes
// normally.
func TestContainmentRestartDuringBoot(t *testing.T) {
	sys := buildContained(t, 2_000_000, nil)
	mon := sys.Monitor
	ctx := mon.Ctx[0]
	h := sys.Machine.Harts[0]

	// A few steps into the firmware's boot, wreck it: control flow into the
	// monitor's own carve-out (a fetch the PMP denies) with an unprogrammed
	// trap vector, so the resulting virtual trap has nowhere to go.
	sys.Machine.Run(50)
	if ctx.World() != core.WorldFirmware {
		t.Fatalf("expected firmware world during boot, got %v", ctx.World())
	}
	ctx.V.Mtvec = 0
	h.PC = core.MiralisBase

	halted, reason := sys.Run(0)
	if !halted || reason != "guest-exit-pass" {
		t.Fatalf("machine did not complete after restart: halted=%v reason=%q", halted, reason)
	}
	st := mon.TotalStats()
	if st.FirmwareRestarts != 1 {
		t.Errorf("FirmwareRestarts = %d, want 1", st.FirmwareRestarts)
	}
	if mon.FaultCount == 0 {
		t.Fatal("no fault recorded")
	}
	f := mon.Faults[0]
	if f.Kind != core.FaultDoubleFault || !f.Contained {
		t.Errorf("fault = %v (contained=%v), want contained double-fault", f.Kind, f.Contained)
	}
	if ctx.Degraded {
		t.Error("boot-time containment must restart, not degrade")
	}
}

// TestDegradedMode: once the OS runs, a firmware double fault diverts to
// degraded mode and the monitor's own SBI surface carries the OS to a
// clean shutdown.
func TestDegradedMode(t *testing.T) {
	sys := buildContained(t, 2_000_000, nil)
	warmup(t, sys)
	mon := sys.Monitor
	ctx := mon.Ctx[0]

	// Runaway CSR write: the virtual trap vector is gone. The next OS trap
	// the monitor re-injects into the firmware double-faults immediately.
	ctx.V.Mtvec = 0

	halted, reason := sys.Run(0)
	if !halted || reason != "guest-exit-pass" {
		t.Fatalf("degraded run did not complete cleanly: halted=%v reason=%q", halted, reason)
	}
	if !ctx.Degraded {
		t.Fatal("monitor never entered degraded mode")
	}
	st := mon.TotalStats()
	if st.DegradedCalls == 0 {
		t.Error("no SBI calls were answered in degraded mode")
	}
	if mon.FaultCount == 0 {
		t.Fatal("no fault recorded")
	}
	if f := mon.Faults[0]; f.Kind != core.FaultDoubleFault || !f.Contained {
		t.Errorf("fault = %v (contained=%v), want contained double-fault", f.Kind, f.Contained)
	}
}

// TestLockupContained: a virtual wfi with every virtual M interrupt masked
// is detected at emulation time as a lockup and contained.
func TestLockupContained(t *testing.T) {
	sys := buildContained(t, 2_000_000, nil)
	mon := sys.Monitor
	ctx := mon.Ctx[0]
	sys.Machine.Run(50) // into the firmware's boot

	ctx.V.Mie = 0
	const wfi = 0x10500073
	vpc := mon.VerifEmulate(ctx, wfi, ctx.Hart.PC)

	if mon.FaultCount == 0 {
		t.Fatal("no fault recorded for a hopeless wfi")
	}
	if f := mon.Faults[0]; f.Kind != core.FaultLockup || !f.Contained {
		t.Errorf("fault = %v (contained=%v), want contained lockup", f.Kind, f.Contained)
	}
	if st := mon.TotalStats(); st.FirmwareRestarts != 1 {
		t.Errorf("FirmwareRestarts = %d, want 1 (boot-time lockup restarts)", st.FirmwareRestarts)
	}
	if vpc != core.FirmwareBase {
		t.Errorf("containment resumed at %#x, want firmware entry %#x", vpc, core.FirmwareBase)
	}
}

// panicPolicy panics on the first OS trap it sees — a stand-in for a bug
// anywhere in the monitor's trap-handling path.
type panicPolicy struct{ core.BasePolicy }

func (panicPolicy) Name() string { return "panic-test" }
func (panicPolicy) OnOSTrap(*core.HartCtx, uint64, uint64) core.Action {
	panic("injected policy bug")
}

// TestPanicBoundary: a Go panic inside trap handling becomes a structured
// MonitorFault and a machine halt — never a process crash.
func TestPanicBoundary(t *testing.T) {
	sys := buildContained(t, 2_000_000, panicPolicy{})
	halted, reason := sys.Run(5_000_000)
	if !halted {
		t.Fatal("machine did not halt on a monitor panic")
	}
	if !strings.Contains(reason, "monitor panic") {
		t.Errorf("halt reason %q does not identify the panic", reason)
	}
	mon := sys.Monitor
	if mon.FaultCount == 0 {
		t.Fatal("no fault recorded")
	}
	f := mon.Faults[0]
	if f.Kind != core.FaultPanic {
		t.Errorf("fault kind = %v, want panic", f.Kind)
	}
	if !strings.Contains(f.Reason, "injected policy bug") {
		t.Errorf("fault reason %q does not carry the panic value", f.Reason)
	}
	if f.Dump == "" {
		t.Error("panic fault has no state dump")
	}
}

// TestSandboxMisbehaviorHook: the sandbox policy observes containment
// events through OnFirmwareMisbehavior and counts them as violations.
func TestSandboxMisbehaviorHook(t *testing.T) {
	sb := sandbox.New(sandbox.Options{Report: true})
	sys := buildContained(t, 2_000_000, sb)
	warmup(t, sys)
	ctx := sys.Monitor.Ctx[0]
	before := sb.Violations
	ctx.V.Mtvec = 0
	sys.Run(0)
	if !ctx.Degraded {
		t.Fatal("expected degraded mode")
	}
	if sb.Violations <= before {
		t.Error("sandbox did not count the misbehavior as a violation")
	}
}
