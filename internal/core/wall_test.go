package core

import (
	"strings"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/firmware"
	"govfm/internal/hart"
	"govfm/internal/kernel"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// containScenario boots gosbi + the boot kernel under the monitor with
// crash containment armed — the configuration the wall, restart, and
// degraded-mode regressions exercise.
func containScenario(t *testing.T, pol Policy) (*hart.Machine, *Monitor) {
	t.Helper()
	return containBoot(t, pol, false)
}

// containBoot is containScenario, with the kernel's Sv39 phase and the
// superblock tier on when paged is set, so that every host cache fills.
// A paged boot runs without the containment watchdog, which keeps blocks
// off (see unwatch).
func containBoot(t *testing.T, pol Policy, paged bool) (*hart.Machine, *Monitor) {
	t.Helper()
	cfg := hart.VisionFive2()
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, DramSize)
	if err != nil {
		t.Fatal(err)
	}
	fw := firmware.BuildGosbi(FirmwareBase, firmware.Options{
		OSEntry: OSBase, Harts: 1, FirmwareSize: FirmwareSize,
	})
	kern := kernel.BuildBoot(OSBase, kernel.BootOptions{
		Harts: 1, TimeReads: 5, TimerSets: 2, Misaligned: 3, Paging: paged,
	})
	if err := m.LoadImage(FirmwareBase, fw.Bytes); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(OSBase, kern); err != nil {
		t.Fatal(err)
	}
	mon, err := Attach(m, Options{
		Policy:        pol,
		Offload:       true,
		FirmwareEntry: FirmwareBase,
		Containment:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Boot()
	if paged {
		m.SetSuperblock(true)
		unwatch(m)
	}
	return m, mon
}

// unwatch detaches the per-step watchdog that Boot attaches under
// containment, so the superblock tier can run.
func unwatch(m *hart.Machine) {
	for _, h := range m.Harts {
		h.Watchdog = nil
	}
}

// TestWallHeldThroughBoot asserts the Dorami wall from boot to guest
// exit: the self-protection entry is locked from the first instruction,
// the invariant checker passes after every world switch, and tampering
// with the entry is detected.
func TestWallHeldThroughBoot(t *testing.T) {
	m, mon := containScenario(t, nil)
	ctx := mon.Ctx[0]
	if err := mon.CheckWall(ctx); err != nil {
		t.Fatalf("wall must hold right after Boot: %v", err)
	}
	if !ctx.Hart.CSR.PMP.Locked(pmpSelf) {
		t.Fatal("self-protection entry must be locked at boot")
	}
	runToExit(t, m, 3_000_000)
	if err := mon.CheckWall(ctx); err != nil {
		t.Errorf("wall must hold at guest exit: %v", err)
	}
	st := mon.TotalStats()
	if st.WallChecks == 0 || st.WallChecks != st.WorldSwitches {
		t.Errorf("wall checked on %d of %d world switches", st.WallChecks, st.WorldSwitches)
	}

	// Tampering must be detected: unlock, regrant, or resize the entry.
	phys := ctx.Hart.CSR.PMP
	goodCfg, goodAddr := phys.Cfg(pmpSelf), phys.Addr(pmpSelf)
	phys.ForceCfg(pmpSelf, pmp.ANapot<<3) // unlocked
	if mon.CheckWall(ctx) == nil {
		t.Error("CheckWall must reject an unlocked wall entry")
	}
	phys.ForceCfg(pmpSelf, goodCfg|pmp.CfgR) // locked but readable
	if mon.CheckWall(ctx) == nil {
		t.Error("CheckWall must reject a readable wall entry")
	}
	phys.ForceCfg(pmpSelf, goodCfg)
	phys.ForceAddr(pmpSelf, pmp.NAPOTAddr(MiralisBase, MiralisSize/2))
	if mon.CheckWall(ctx) == nil {
		t.Error("CheckWall must reject a shrunk wall entry")
	}
	phys.ForceAddr(pmpSelf, goodAddr)
	if err := mon.CheckWall(ctx); err != nil {
		t.Errorf("restored wall must pass again: %v", err)
	}
}

// TestBootRestartReprogramsWall is the boot → restart → reprogram
// regression: a containment restart from the boot snapshot must come back
// with the wall locked, and a full power cycle (Machine.Reset, which
// legitimately clears locks) must re-lock on the next Boot. Neither may
// consult a host cache from before it: the first wall check after the
// restart probes again, and the run after the power cycle walks page
// tables, translates blocks and probes the wall exactly as a fresh
// machine's run does.
func TestBootRestartReprogramsWall(t *testing.T) {
	m, mon := containBoot(t, nil, true)
	ctx := mon.Ctx[0]
	h := ctx.Hart

	// Declare the firmware dead right out of Boot, before the OS launches:
	// containment must restart it from the boot snapshot. (No Run first —
	// gosbi hands off to the OS within a few hundred steps.)
	if ctx.osLive {
		t.Fatal("test premise: OS must not be live yet")
	}
	mon.checkWallAfterSwitch(ctx) // a verdict on the boot view
	probes := ctx.Stats.WallProbes
	f := mon.newFault(ctx, FaultDoubleFault, "test-induced crash")
	vpc := mon.misbehave(ctx, f, h.PC)
	if vpc != FirmwareBase {
		t.Errorf("pre-OS containment must restart at the firmware entry, got %#x", vpc)
	}
	if ctx.Stats.FirmwareRestarts != 1 {
		t.Errorf("FirmwareRestarts = %d, want 1", ctx.Stats.FirmwareRestarts)
	}
	if err := mon.CheckWall(ctx); err != nil {
		t.Errorf("wall must be re-locked after a snapshot restart: %v", err)
	}
	if !h.CSR.PMP.Locked(pmpSelf) {
		t.Error("restart must come back with the wall entry locked")
	}
	mon.checkWallAfterSwitch(ctx)
	if got := ctx.Stats.WallProbes - probes; got != 1 {
		t.Errorf("the first wall check after a restart ran %d probes, want 1", got)
	}
	// The restarted firmware must boot all the way to a passing guest.
	runToExit(t, m, 3_000_000)

	// Power cycle: Reset clears every PMP entry, locks included, per spec.
	m.Reset(FirmwareBase)
	if h.CSR.PMP.Cfg(pmpSelf) != 0 {
		t.Error("power-on reset must clear the locked wall entry")
	}
	before := readHostCounts(mon)
	mon.Boot()
	unwatch(m)
	if err := mon.CheckWall(mon.Ctx[0]); err != nil {
		t.Errorf("Boot after Reset must re-lock the wall: %v", err)
	}
	runToExit(t, m, 3_000_000)
	fm, fmon := containBoot(t, nil, true)
	runToExit(t, fm, 3_000_000)
	if got, want := readHostCounts(mon).since(before), readHostCounts(fmon); got != want {
		t.Errorf("the run after Reset consulted caches from before it:\n got %+v\nwant %+v (a fresh machine)", got, want)
	}
}

// hostCounts are the counters a host cache from before a reset would
// lower: page walks, TLB and decode misses, block translations and wall
// probes, beside the cycles and instructions that pin the run itself.
type hostCounts struct {
	cycles, instret, walks, tlbMisses, decodeMisses, translations, wallProbes uint64
}

func readHostCounts(mon *Monitor) hostCounts {
	h := mon.Ctx[0].Hart
	return hostCounts{
		h.Cycles, h.Instret, h.Perf.PageWalks, h.Perf.TLBMisses,
		h.Perf.DecodeMisses, h.Perf.SBTranslations, mon.TotalStats().WallProbes,
	}
}

// since returns the counts accrued after b, cycles and instret excepted:
// Reset zeroes those.
func (c hostCounts) since(b hostCounts) hostCounts {
	return hostCounts{
		c.cycles, c.instret, c.walks - b.walks, c.tlbMisses - b.tlbMisses,
		c.decodeMisses - b.decodeMisses, c.translations - b.translations, c.wallProbes - b.wallProbes,
	}
}

// misbehaviorPolicy scripts OnFirmwareMisbehavior for the degraded-mode
// double-fault regression.
type misbehaviorPolicy struct {
	BasePolicy
	act   Action
	calls int
}

func (p *misbehaviorPolicy) OnFirmwareMisbehavior(*HartCtx, *MonitorFault) Action {
	p.calls++
	return p.act
}

// TestDegradedReentryNoDoubleFire is the degraded-mode re-entry
// regression: once the firmware is written off, a second misbehavior
// must not re-enter containment (no restart slot burned, no virtual
// M-state rebuild) and must leave exactly one fault ring entry per event.
func TestDegradedReentryNoDoubleFire(t *testing.T) {
	pol := &misbehaviorPolicy{act: ActDefault}
	m, mon := containScenario(t, pol)
	ctx := mon.Ctx[0]
	h := ctx.Hart

	// Run until the OS is live so containment diverts to degraded mode.
	m.RunUntil(func() bool { return h.SInstret > 64 }, 3_000_000)
	if h.SInstret <= 64 {
		t.Fatal("OS never launched")
	}
	f1 := mon.newFault(ctx, FaultDoubleFault, "induced fault #1")
	mon.misbehave(ctx, f1, h.PC)
	if !ctx.Degraded {
		t.Fatal("first post-OS misbehavior must enter degraded mode")
	}
	restarts, faults := ctx.Stats.FirmwareRestarts, mon.FaultCount
	vBefore := ctx.V

	// Second misbehavior while degraded: recorded once, no containment.
	h.Cycles += 1000 // a distinct detection instant
	f2 := mon.newFault(ctx, FaultWatchdog, "induced fault #2")
	mon.misbehave(ctx, f2, h.PC)
	if h.Halted {
		t.Fatal("ActDefault in degraded mode must not halt")
	}
	if mon.FaultCount != faults+1 {
		t.Errorf("second fault left %d ring entries, want exactly 1", mon.FaultCount-faults)
	}
	if ctx.Stats.FirmwareRestarts != restarts {
		t.Errorf("degraded re-entry burned a restart: %d -> %d", restarts, ctx.Stats.FirmwareRestarts)
	}
	if !ctx.Degraded || ctx.V != vBefore {
		t.Error("degraded re-entry must not rebuild the virtual M-state the OS depends on")
	}
	if !f2.Contained {
		t.Error("a degraded-mode fault the policy did not block counts as contained")
	}

	// The same event escalating to halt at the same instant (e.g. the halt
	// path running right after the record) must not add a second entry.
	mon.halt(ctx, "escalation at the same instant")
	h.Halted, h.HaltReason = false, "" // undo for the next phase
	mon.HaltedReason = ""
	if mon.FaultCount != faults+1 {
		t.Errorf("same-instant escalation added a ring entry: %d", mon.FaultCount-faults)
	}

	// ActBlock while degraded: halt with one fault entry, still no restart.
	pol.act = ActBlock
	h.Cycles += 1000
	f3 := mon.newFault(ctx, FaultWatchdog, "induced fault #3")
	mon.misbehave(ctx, f3, h.PC)
	if !h.Halted || !strings.Contains(h.HaltReason, "policy blocked") {
		t.Errorf("ActBlock in degraded mode must halt with attribution, got halted=%v %q", h.Halted, h.HaltReason)
	}
	if mon.FaultCount != faults+2 {
		t.Errorf("blocked fault left %d ring entries for the event, want 1", mon.FaultCount-faults-1)
	}
	if ctx.Stats.FirmwareRestarts != restarts {
		t.Errorf("blocked degraded fault burned a restart: %d", ctx.Stats.FirmwareRestarts)
	}
	if f3.Contained {
		t.Error("a blocked fault must not be marked contained")
	}
	if pol.calls != 3 {
		t.Errorf("policy saw %d misbehavior callbacks, want 3", pol.calls)
	}
}

// TestForkPreservesWall is the fork-then-probe regression at the monitor
// level: a forked monitor must carry the locked wall, the PMP view, and
// the protected-state fingerprint, and stay independent of the parent.
func TestForkPreservesWall(t *testing.T) {
	m, mon := containScenario(t, nil)
	ctx := mon.Ctx[0]
	m.Run(20_000) // boot far enough that PMP state is warm

	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	child, err := hart.SpawnFromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	fmon, err := mon.Fork(child)
	if err != nil {
		t.Fatal(err)
	}
	fctx := fmon.Ctx[0]
	if err := fmon.CheckWall(fctx); err != nil {
		t.Fatalf("forked monitor must inherit the wall: %v", err)
	}
	if !fctx.Hart.CSR.PMP.Locked(pmpSelf) {
		t.Error("fork lost the wall entry's lock bit")
	}
	// The child's PMP file comes from the parent's image: the same
	// contents in the same intern table, so the same view ID, which caches
	// key off.
	if v, pv := fctx.Hart.CSR.PMP.View(), ctx.Hart.CSR.PMP.View(); v == 0 || v != pv {
		t.Errorf("spawned child has PMP view %d, parent %d: want the parent's nonzero view", v, pv)
	}
	if fmon.MonitorStateHash() != mon.MonitorStateHash() {
		t.Error("fork changed the monitor-state fingerprint")
	}

	// Independence: wrecking the parent's wall must not touch the child.
	ctx.Hart.CSR.PMP.ForceCfg(pmpSelf, 0)
	if mon.CheckWall(ctx) == nil {
		t.Fatal("sanity: parent wall should now be broken")
	}
	if err := fmon.CheckWall(fctx); err != nil {
		t.Errorf("parent tamper leaked into the fork: %v", err)
	}
	// And the fork still boots to a passing guest on its own.
	runToExit(t, child, 3_000_000)
	if err := fmon.CheckWall(fctx); err != nil {
		t.Errorf("fork wall must hold at guest exit: %v", err)
	}
	if got := fmon.TotalStats(); got.WallChecks != got.WorldSwitches {
		t.Errorf("fork wall checked on %d of %d world switches", got.WallChecks, got.WorldSwitches)
	}
}

// TestWallBreachHaltsAndRecords drives a world switch with a sabotaged
// reinstall path and asserts the monitor classifies it: since installPMP
// itself always re-locks, simulate the breach by corrupting the wall and
// calling the post-switch checker directly.
func TestWallBreachHaltsAndRecords(t *testing.T) {
	m, mon := containScenario(t, nil)
	ctx := mon.Ctx[0]
	ctx.Hart.CSR.PMP.ForceCfg(pmpSelf, pmp.CfgR|pmp.CfgW|pmp.CfgX|pmp.ANapot<<3)
	mon.checkWallAfterSwitch(ctx)
	h := ctx.Hart
	if !h.Halted || !strings.Contains(h.HaltReason, "wall breached") {
		t.Fatalf("breach must halt with attribution, got halted=%v %q", h.Halted, h.HaltReason)
	}
	_ = m
	if len(mon.Faults) == 0 || mon.Faults[len(mon.Faults)-1].Kind != FaultWallBreach {
		t.Fatal("breach must leave a FaultWallBreach record")
	}
	if mon.Faults[len(mon.Faults)-1].Contained {
		t.Error("a wall breach is not containable")
	}
}

// TestWallProbeOncePerView: a world-switch wall check onto a view the
// probe already passed on checks the entry's fields only — none of the
// probe's 27 PMP checks — yet still counts, while CheckWall, the entry
// point of the chaos and TEE harnesses, always runs the full probe.
func TestWallProbeOncePerView(t *testing.T) {
	m, mon := containScenario(t, nil)
	runToExit(t, m, 3_000_000)
	ctx := mon.Ctx[0]
	phys := ctx.Hart.CSR.PMP
	st := ctx.Stats
	if st.WallProbes == 0 || st.WallProbes >= st.WallChecks {
		t.Fatalf("boot ran %d probes over %d wall checks; want one per view", st.WallProbes, st.WallChecks)
	}
	checks := phys.Perf.Checks
	mon.checkWallAfterSwitch(ctx)
	if n := phys.Perf.Checks - checks; n != 0 {
		t.Errorf("a check onto a verified view ran %d PMP checks, want 0", n)
	}
	if ctx.Stats.WallChecks != st.WallChecks+1 || ctx.Stats.WallProbes != st.WallProbes {
		t.Errorf("checks %d -> %d, probes %d -> %d: want one more check, no probe",
			st.WallChecks, ctx.Stats.WallChecks, st.WallProbes, ctx.Stats.WallProbes)
	}
	checks = phys.Perf.Checks
	if err := mon.CheckWall(ctx); err != nil {
		t.Fatal(err)
	}
	if n := phys.Perf.Checks - checks; n != 27 {
		t.Errorf("CheckWall ran %d PMP checks, want the full probe's 27", n)
	}
}

// TestWallProbesNewViews: after a power cycle, a snapshot restore and a
// monitor fork, a view the hart's verdicts have not seen is probed, and an
// overreach planted in the wall entry halts with a FaultWallBreach.
func TestWallProbesNewViews(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) *Monitor
	}{
		{"after Machine.Reset", func(t *testing.T) *Monitor {
			m, mon := containScenario(t, nil)
			runToExit(t, m, 3_000_000)
			m.Reset(FirmwareBase)
			mon.Boot()
			return mon
		}},
		{"after Hart.Restore", func(t *testing.T) *Monitor {
			m, mon := containScenario(t, nil)
			snap := m.Checkpoint()
			runToExit(t, m, 3_000_000)
			m.Restore(snap)
			return mon
		}},
		{"after Monitor.Fork", func(t *testing.T) *Monitor {
			m, mon := containScenario(t, nil)
			// Into the OS world and back: the parent has verified both views.
			m.RunUntil(func() bool { return mon.Ctx[0].Stats.WorldSwitches >= 2 }, 3_000_000)
			child, err := m.Fork()
			if err != nil {
				t.Fatal(err)
			}
			fmon, err := mon.Fork(child)
			if err != nil {
				t.Fatal(err)
			}
			// The parent's verdicts travel with the shared intern table: a
			// switch onto a view the parent verified probes nothing.
			probes := fmon.Ctx[0].Stats.WallProbes
			fmon.checkWallAfterSwitch(fmon.Ctx[0])
			if probes == 0 || fmon.Ctx[0].Stats.WallProbes != probes {
				t.Errorf("the child re-probed its parent's view: %d -> %d probes",
					probes, fmon.Ctx[0].Stats.WallProbes)
			}
			return fmon
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mon := tc.setup(t)
			ctx := mon.Ctx[0]
			phys := ctx.Hart.CSR.PMP
			// A view no switch has installed: the all-memory entry moved.
			last := phys.NumEntries() - 1
			phys.ForceAddr(last, phys.Addr(last)^0x1000)
			probes, checks := ctx.Stats.WallProbes, phys.Perf.Checks
			mon.checkWallAfterSwitch(ctx)
			if ctx.Stats.WallProbes != probes+1 || phys.Perf.Checks-checks != 27 {
				t.Errorf("a new view ran %d probes and %d PMP checks, want 1 and 27",
					ctx.Stats.WallProbes-probes, phys.Perf.Checks-checks)
			}
			h := ctx.Hart
			if h.Halted {
				t.Fatalf("a sound wall halted the hart: %q", h.HaltReason)
			}
			phys.ForceCfg(pmpSelf, wallCfg|pmp.CfgR)
			mon.checkWallAfterSwitch(ctx)
			if !h.Halted || !strings.Contains(h.HaltReason, "wall breached") {
				t.Fatalf("a readable wall must halt with attribution, got halted=%v %q", h.Halted, h.HaltReason)
			}
			if len(mon.Faults) == 0 || mon.Faults[len(mon.Faults)-1].Kind != FaultWallBreach {
				t.Error("the breach must leave a FaultWallBreach record")
			}
		})
	}
}

// TestWallVerdictsFollowTableClears checks that the wall's verdicts stay
// within the view table's cap: a verdict vouches for its view until the
// table is cleared, and for nothing after, even though view IDs are never
// reused.
func TestWallVerdictsFollowTableClears(t *testing.T) {
	f := pmp.NewFile(16)
	views := f.Views()
	var w wallVerdicts
	f.SetAddr(3, 1)
	old := f.View()
	w.add(views, old)
	if !w.vouches(views, old) || w.vouches(pmp.NewFile(16).Views(), old) {
		t.Fatalf("a verdict must vouch for its view in its own table only")
	}
	for i := 0; i < pmp.ViewCap; i++ {
		f.SetAddr(3, uint64(100+i))
		f.View()
	}
	if views.First() <= old {
		t.Fatalf("%d new views did not clear the table (first live ID %d)", pmp.ViewCap, views.First())
	}
	if w.vouches(views, old) {
		t.Fatalf("a verdict vouched across a table clear")
	}
	f.SetAddr(3, 1)
	id := f.View()
	if id == old {
		t.Fatalf("an ID was reused after a clear")
	}
	w.add(views, id)
	if !w.vouches(views, id) || w.vouches(views, old) {
		t.Fatalf("after the clear: vouches(new)=%v vouches(old)=%v", w.vouches(views, id), w.vouches(views, old))
	}
}

// wallAttacks are the four emulated accesses a firmware can aim at memory
// the monitor protects: each loads from or stores 0x5a5a to the address in
// T1, at S-level (SPVP=1, or MPRV with MPP=S).
var wallAttacks = []struct {
	name  string
	store bool
	emit  func(a *asm.Asm)
}{
	{"hlv.d", false, func(a *asm.Asm) {
		a.Li(asm.T0, 1<<rv.HstatusSPVP)
		a.Csrrs(asm.X0, rv.CSRHstatus, asm.T0)
		a.Hlv(asm.S1, asm.T1, 8, false)
	}},
	{"hsv.d", true, func(a *asm.Asm) {
		a.Li(asm.T0, 1<<rv.HstatusSPVP)
		a.Csrrs(asm.X0, rv.CSRHstatus, asm.T0)
		a.Li(asm.T2, 0x5a5a)
		a.Hsv(asm.T2, asm.T1, 8)
	}},
	{"mprv-ld", false, func(a *asm.Asm) {
		setMPRV(a, rv.ModeS, false)
		a.Ld(asm.S1, asm.T1, 0)
	}},
	{"mprv-sd", true, func(a *asm.Asm) {
		setMPRV(a, rv.ModeS, false)
		a.Li(asm.T2, 0x5a5a)
		a.Sd(asm.T2, asm.T1, 0)
	}},
}

// TestEmulatedAccessesHoldTheWall aims hlv.d, hsv.d, an MPRV ld and an
// MPRV sd at the monitor's own carve-out on p550: each must reach the
// firmware as an access fault on the target, and no byte of it may change.
func TestEmulatedAccessesHoldTheWall(t *testing.T) {
	const target = MiralisBase + 0x100
	for _, at := range wallAttacks {
		t.Run(at.name, func(t *testing.T) {
			cfg := hart.PremierP550()
			cfg.Harts = 1
			m, err := hart.NewMachine(cfg, DramSize)
			if err != nil {
				t.Fatal(err)
			}
			img, results := accessFirmware(true, func(a *asm.Asm) {
				a.Li(asm.T1, target)
				at.emit(a)
			})
			if err := m.LoadImage(FirmwareBase, img); err != nil {
				t.Fatal(err)
			}
			mon, err := Attach(m, Options{FirmwareEntry: FirmwareBase})
			if err != nil {
				t.Fatal(err)
			}
			mon.Boot()
			const secret = 0x5ec2e7
			m.Bus.Store(target, 8, secret)
			m.Run(1_000_000)
			if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
				t.Fatalf("halted=%v %q", ok, reason)
			}
			cause := uint64(rv.ExcLoadAccessFault)
			if at.store {
				cause = rv.ExcStoreAccessFault
			}
			mcause, _ := m.Bus.Load(results+8*4, 8)
			mtval, _ := m.Bus.Load(results+8*5, 8)
			if mcause != cause || mtval != target {
				t.Errorf("firmware saw mcause %#x mtval %#x, want %#x at %#x", mcause, mtval, cause, uint64(target))
			}
			if v, _ := m.Bus.Load(target, 8); v != secret {
				t.Errorf("carve-out word %#x, want %#x", v, secret)
			}
			if s1, _ := m.Bus.Load(results, 8); s1 == secret {
				t.Error("the carve-out's word reached the firmware")
			}
		})
	}
}
