package core

import (
	"fmt"

	"govfm/internal/asm"
	"govfm/internal/hart"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// Crash containment and watchdog recovery. The paper's isolation story
// (§5) keeps a misbehaving firmware from *corrupting* the OS; this file
// keeps it from *wedging* the machine: a firmware that double-faults,
// spins past its cycle budget, or sleeps with every wakeup masked is
// written off and the monitor recovers — by restarting the firmware from
// its boot snapshot while the OS has not launched yet, or by switching to
// a degraded mode where the monitor itself answers the OS's SBI calls.
// Dorami and VOSySmonitoRV make the same argument for their monitor
// layers: isolation without recovery still loses availability.

// defaultMaxRestarts bounds containment-driven firmware restarts when
// Options.MaxRestarts is zero.
const defaultMaxRestarts = 8

// degradedMedeleg is the exception delegation installed for the OS once
// the firmware is written off: everything the OS handles natively is
// delegated; ecalls, illegal instructions (time-CSR emulation), and
// misaligned accesses stay with the monitor, which services them in place
// of the firmware.
const degradedMedeleg = (uint64(1)<<rv.ExcInstrAddrMisaligned |
	1<<rv.ExcInstrAccessFault |
	1<<rv.ExcBreakpoint |
	1<<rv.ExcLoadAccessFault |
	1<<rv.ExcStoreAccessFault |
	1<<rv.ExcEcallFromU |
	1<<rv.ExcInstrPageFault |
	1<<rv.ExcLoadPageFault |
	1<<rv.ExcStorePageFault) & vMedelegMask

// misbehave dispatches a detected firmware failure: the policy sees it
// first (OnFirmwareMisbehavior), then the monitor's default containment
// runs. Returns the PC execution resumes at.
func (m *Monitor) misbehave(ctx *HartCtx, f *MonitorFault, fallback uint64) uint64 {
	if ctx.Degraded {
		// Already degraded: the firmware is written off, so there is no
		// containment left to fire. Whatever the policy answers, record the
		// fault exactly once and never re-enter containFirmware — a second
		// pass would burn a restart slot, rebuild the virtual M-state the
		// degraded OS depends on, and (with an unlucky policy Action) leave
		// two ring entries for one event.
		act := m.Policy.OnFirmwareMisbehavior(ctx, f)
		f.Contained = act != ActBlock
		if !m.faultJustRecorded(ctx) {
			m.recordFault(f)
		}
		if act == ActBlock {
			m.halt(ctx, "policy blocked misbehaving firmware (degraded): "+f.Reason)
			return fallback
		}
		// Re-arm the progress clocks so the surviving OS gets a full budget.
		ctx.lastOSInstret = ctx.Hart.Instret
		ctx.osProgressCycles = ctx.Hart.Cycles
		return ctx.takeOverride(fallback)
	}
	switch m.Policy.OnFirmwareMisbehavior(ctx, f) {
	case ActHandled:
		// The policy claims the recovery; re-arm the budgets for it.
		f.Contained = true
		m.recordFault(f)
		ctx.fwEnterCycles = ctx.Hart.Cycles
		ctx.lastOSInstret = ctx.Hart.Instret
		ctx.osProgressCycles = ctx.Hart.Cycles
		return ctx.takeOverride(fallback)
	case ActBlock:
		m.recordFault(f)
		m.halt(ctx, "policy blocked misbehaving firmware: "+f.Reason)
		return fallback
	}
	return m.containFirmware(ctx, f, fallback)
}

// containFirmware is the monitor's default recovery: reinitialize the
// virtual firmware from the boot snapshot, preserving the OS's supervisor
// shadow, and either restart the firmware (no OS yet) or abandon it for
// degraded mode (OS live). Returns the resume PC.
func (m *Monitor) containFirmware(ctx *HartCtx, f *MonitorFault, fallback uint64) uint64 {
	h := ctx.Hart
	fromWorld := ctx.World()
	if fromWorld == WorldOS {
		// The fault fired while the OS held the hart (starvation watchdog):
		// the physical S CSRs are live and the virtual shadow is stale, so
		// sync it before rebuilding around it.
		m.saveOSState(ctx)
		m.chargeCSRTransfer(ctx)
	}
	max := m.Opts.MaxRestarts
	if max <= 0 {
		max = defaultMaxRestarts
	}
	if ctx.Stats.FirmwareRestarts >= uint64(max) {
		m.recordFault(f)
		m.halt(ctx, fmt.Sprintf("firmware restart limit (%d) exceeded: %s", max, f.Reason))
		return fallback
	}
	ctx.Stats.FirmwareRestarts++
	f.Contained = true
	m.recordFault(f)

	// Reload the firmware image: the crash may have corrupted its text.
	if m.bootFW != nil {
		_ = m.Machine.Bus.WriteBytes(FirmwareBase, m.bootFW)
	}

	// Rebuild the virtual M-state from scratch while carrying over the
	// S-mode shadow — that state belongs to the OS, not the firmware.
	old := ctx.V
	nv := newVirtCSRs(m.NumVirtPMP())
	if ctx.Hart.Cfg.HasH {
		nv.enableH()
	}
	nv.Stvec, nv.Scounteren, nv.Senvcfg = old.Stvec, old.Scounteren, old.Senvcfg
	nv.Sscratch, nv.Sepc, nv.Scause = old.Sscratch, old.Sepc, old.Scause
	nv.Stval, nv.Satp, nv.Stimecmp = old.Stval, old.Satp, old.Stimecmp
	nv.Mstatus = nv.Mstatus&^vSstatusMask | old.Mstatus&vSstatusMask
	nv.Mie = old.Mie & rv.SIntMask
	nv.MipSW = old.MipSW & rv.SIntMask
	nv.Menvcfg = old.Menvcfg // Sstc enable is OS-visible state
	ctx.V = nv
	ctx.vTrapDepth = 0
	ctx.VirtWaiting = false
	ctx.mprvActive = false
	// Drop firmware-owned virtual CLINT state; the OS deadline armed by
	// the fast path survives untouched.
	m.vclint.SetVirtMtimecmp(h.ID, ^uint64(0))
	m.vclint.SetVirtMsip(h.ID, false)

	// Degraded mode only makes sense when a supervisor OS exists for the
	// monitor to serve: it needs a trap vector to deliver into and SBI
	// calls to answer. A firmware whose payload never reached S-mode (the
	// M-mode RTOS and its U-mode app, or a crash before the OS programmed
	// stvec) gets the whole-system restart instead — resuming "the OS" at
	// a zero stvec would just fault-loop at address 0.
	hasOS := ctx.osLive && (nv.Stvec != 0 || h.SInstret > 0)
	if !hasOS {
		// The OS has not (meaningfully) launched: restart the firmware from
		// its boot snapshot. Time is monotonic, so the counters are not
		// rewound.
		if s := m.bootSnap(h.ID); s != nil {
			cyc, ins, sins := h.Cycles, h.Instret, h.SInstret
			h.Restore(s)
			h.Cycles, h.Instret, h.SInstret = cyc, ins, sins
		}
		ctx.VirtMode = rv.ModeM
		ctx.osLive = false // the reboot gets the boot-regime watchdog again
		ctx.fwEnterCycles = h.Cycles
		ctx.wall = wallVerdicts{} // and a wall probed afresh on every view
		m.installPhysCSRs(ctx, WorldFirmware)
		m.installPMP(ctx, WorldFirmware)
		m.observeContain(ctx, "contain:restart")
		return m.Opts.FirmwareEntry
	}

	// The OS is live: enter degraded mode. The firmware world is never
	// re-entered; from here on the monitor answers SBI calls itself.
	ctx.Degraded = true
	nv.Medeleg = degradedMedeleg
	nv.Mcounteren = ^uint64(0)
	// Grant the OS all memory through the rebuilt virtual PMP. The grant
	// the OS ran under came from the dead firmware's PMP programming; with
	// the virtual file zeroed, no entry matches and S-mode would be denied
	// every access — an invisible, fully-delegated fault loop. The policy's
	// own rules sit at higher priority and still apply.
	last := nv.PMP.NumEntries() - 1
	nv.PMP.ForceAddr(last, rv.Mask(54))
	nv.PMP.ForceCfg(last, pmp.CfgR|pmp.CfgW|pmp.CfgX|pmp.ANapot<<3)
	// Re-arm the starvation clock for the recovered OS.
	ctx.lastOSInstret = h.Instret
	ctx.osProgressCycles = h.Cycles
	m.observeContain(ctx, "contain:degraded")
	if fromWorld == WorldOS {
		// No world switch will happen on resume (OS → OS), so push the
		// repaired state — degraded delegation, allow-all virtual PMP —
		// into the physical registers here, and resume exactly where the
		// OS was stalled.
		m.installPhysCSRs(ctx, WorldOS)
		m.installPMP(ctx, WorldOS)
		return fallback
	}
	if ps := ctx.pendingSBI; ps != nil {
		// The firmware died mid-call: answer it now. The virtual mcause
		// keeps the ecall cause so policy GPR bookkeeping (sandbox scrub/
		// restore) still recognizes an SBI return path.
		ctx.pendingSBI = nil
		nv.Mcause = ps.Cause
		copy(h.Regs[asm.A0:asm.A7+1], ps.Args[:])
		ctx.VirtMode = ps.callerMode()
		return m.degradedEcall(ctx, ps.EPC)
	}
	ctx.VirtMode = ctx.osEntry.Mode
	if ctx.VirtMode == rv.ModeM {
		// Defensive: an uncaptured resume point cannot target vM.
		ctx.VirtMode = rv.ModeS
	}
	return ctx.osEntry.PC
}

// callerMode maps the pending call's ecall cause to the calling mode.
func (p *pendingCall) callerMode() rv.Mode {
	if p.Cause == rv.ExcEcallFromU {
		return rv.ModeU
	}
	return rv.ModeS
}

// bootSnap returns the boot snapshot for hart id, if captured.
func (m *Monitor) bootSnap(id int) *hart.Snapshot {
	if id < len(m.bootSnaps) {
		return m.bootSnaps[id]
	}
	return nil
}

// capturePendingSBI records the OS's SBI call before it is re-injected
// into the firmware, so containment can answer it if the firmware dies.
func (m *Monitor) capturePendingSBI(ctx *HartCtx, cause, epc uint64) {
	if !m.Opts.Containment {
		return
	}
	p := &pendingCall{Cause: cause, EPC: epc}
	copy(p.Args[:], ctx.Hart.Regs[asm.A0:asm.A7+1])
	ctx.pendingSBI = p
}

// rejectToFirmware re-injects an OS trap the monitor did not absorb. In
// normal operation it enters the virtual firmware; in degraded mode the
// firmware no longer exists, so the monitor services what the firmware
// would have (time-CSR reads, misaligned accesses) and delivers the rest
// to the OS's own handler, as a fully-delegating recovery firmware would.
func (m *Monitor) rejectToFirmware(ctx *HartCtx, code, tval, epc uint64) uint64 {
	// The physical mtval2 is still live from the trap that got us here; a
	// guest-page fault re-injected into the virtual firmware carries it.
	var tval2 uint64
	if ctx.Hart.Cfg.HasH {
		tval2 = ctx.Hart.CSR.Mtval2
	}
	if !ctx.Degraded {
		return m.injectVirtTrapG(ctx, code, tval, tval2, epc)
	}
	m.forceOffload = true
	defer func() { m.forceOffload = false }()
	switch code {
	case rv.ExcIllegalInstr:
		if vpc, ok := m.fastPathIllegal(ctx, uint32(tval), epc); ok {
			ctx.Stats.FastPathHits++
			return vpc
		}
	case rv.ExcLoadAddrMisaligned, rv.ExcStoreAddrMisaligned:
		if vpc, ok := m.fastPathMisaligned(ctx, code, tval, epc); ok {
			ctx.Stats.FastPathHits++
			return vpc
		}
	}
	return m.injectVirtSTrap(ctx, code, tval, tval2, epc)
}

// degradedEcall answers an OS SBI call with the monitor's own fallback
// implementation: the five fast paths (forced on), plus a minimal Base /
// console / reset / HSM surface. Anything else returns NOT_SUPPORTED —
// degraded mode trades SBI coverage for availability.
func (m *Monitor) degradedEcall(ctx *HartCtx, epc uint64) uint64 {
	h := ctx.Hart
	ctx.Stats.DegradedCalls++
	m.forceOffload = true
	vpc, ok := m.fastPathEcall(ctx, epc)
	m.forceOffload = false
	if ok {
		ctx.Stats.FastPathHits++
		return vpc
	}
	ext, fn := h.Reg(asm.A7), h.Reg(asm.A6)
	switch ext {
	case rv.SBIExtBase:
		switch fn {
		case rv.SBIBaseGetSpecVersion:
			sbiRet(ctx, rv.SBISuccess, 2<<24) // SBI v2.0
		case rv.SBIBaseProbeExt:
			var avail uint64
			switch h.Reg(asm.A0) {
			case rv.SBIExtBase, rv.SBIExtTimer, rv.SBIExtIPI, rv.SBIExtRfence,
				rv.SBIExtReset, rv.SBIExtDebug:
				avail = 1
			}
			sbiRet(ctx, rv.SBISuccess, avail)
		default:
			// Impl id/version, mvendorid/marchid/mimpid: all zero for the
			// degraded fallback.
			sbiRet(ctx, rv.SBISuccess, 0)
		}
	case rv.SBIExtDebug:
		switch fn {
		case rv.SBIDebugWriteByte:
			h.Bus.Store(hart.UartBase, 1, h.Reg(asm.A0)&0xFF)
			sbiRet(ctx, rv.SBISuccess, 0)
		default:
			sbiRet(ctx, rv.SBIErrNotSupported, 0)
		}
	case rv.SBIExtReset:
		// Any reset request from a degraded machine ends the run: a clean
		// shutdown passes, everything else reports the reason.
		if h.Reg(asm.A0) == 0 && h.Reg(asm.A1) == 0 {
			h.Bus.Store(hart.ExitBase, 4, hart.ExitPass)
		} else {
			h.Bus.Store(hart.ExitBase, 4, hart.ExitFail|h.Reg(asm.A1)<<16)
		}
	case rv.SBIExtHSM:
		if fn == rv.SBIHSMHartStatus {
			sbiRet(ctx, rv.SBISuccess, 1) // STOPPED: no new harts come up
		} else {
			sbiRet(ctx, rv.SBIErrNotSupported, 0)
		}
	case rv.SBILegacyConsolePut:
		h.Bus.Store(hart.UartBase, 1, h.Reg(asm.A0)&0xFF)
		h.SetReg(asm.A0, 0)
	case rv.SBILegacyShutdown:
		h.Bus.Store(hart.ExitBase, 4, hart.ExitPass)
	default:
		sbiRet(ctx, rv.SBIErrNotSupported, 0)
	}
	return epc + 4
}

// injectVirtSTrap performs virtual supervisor trap entry: scause/sepc/
// stval latched, SIE stacked into SPIE, SPP set, resume at stvec. Shared
// by the delegated branch of injectVirtTrap and degraded-mode delivery.
func (m *Monitor) injectVirtSTrap(ctx *HartCtx, cause, tval, tval2, epc uint64) uint64 {
	v := ctx.V
	v.Scause = cause
	v.Sepc = vLegalizeEpc(epc)
	v.Stval = tval
	if v.Mstatus&(1<<1) != 0 { // SIE -> SPIE
		v.Mstatus |= 1 << 5
	} else {
		v.Mstatus &^= 1 << 5
	}
	v.Mstatus &^= 1 << 1 // SIE = 0
	if ctx.VirtMode == rv.ModeS {
		v.Mstatus |= 1 << 8
	} else {
		v.Mstatus &^= 1 << 8
	}
	if ctx.Hart.Cfg.HasH {
		hs := v.Hstatus &^ (uint64(1)<<rv.HstatusSPV | 1<<rv.HstatusGVA)
		if ctx.VirtV {
			hs |= 1 << rv.HstatusSPV
			hs &^= 1 << rv.HstatusSPVP
			if ctx.VirtMode == rv.ModeS {
				hs |= 1 << rv.HstatusSPVP
			}
			if !rv.CauseIsInterrupt(cause) &&
				rv.CauseWritesGVA(rv.CauseCode(cause)) {
				hs |= 1 << rv.HstatusGVA
			}
		}
		v.Hstatus = hs
		v.Htval = tval2
		v.Htinst = 0
		ctx.VirtV = false
	}
	ctx.VirtMode = rv.ModeS
	ctx.VirtWaiting = false
	return v.Stvec &^ 3
}

// watchdogHook builds the per-hart watchdog closure installed on
// hart.Watchdog: it runs after every machine step, outside the trap path,
// because a runaway firmware takes no traps the monitor could observe.
func (m *Monitor) watchdogHook(ctx *HartCtx) func(*hart.Hart) {
	return func(h *hart.Hart) { m.watchdogPoll(ctx) }
}

// watchdogPoll charges the watchdog budget and fires on exhaustion. Two
// regimes share one budget value:
//
//   - Before the OS launches, the budget bounds a single firmware-world
//     residency (a stuck boot), sliding while the firmware idles in wfi
//     with a wakeup armed.
//
//   - Once the OS is live, the budget bounds cycles without a single
//     retired S-mode instruction, in *either* world. A per-entry budget
//     cannot see trap ping-pong (every firmware entry is short, but the
//     OS never advances) or fully-delegated fault loops (the monitor is
//     never entered at all); the starvation clock catches both. The
//     clock slides while the OS itself idles in wfi.
func (m *Monitor) watchdogPoll(ctx *HartCtx) {
	budget := m.Opts.WatchdogBudget
	h := ctx.Hart
	if budget == 0 || !m.Opts.Containment || h.Halted || h.Stopped {
		return
	}
	if ctx.Degraded {
		// Degraded regime: the monitor is already the OS's service layer of
		// last resort. If the OS still starves, there is nothing further to
		// contain — stop with a diagnosable fault instead of spinning
		// forever.
		if h.Instret != ctx.lastOSInstret {
			ctx.lastOSInstret = h.Instret
			ctx.osProgressCycles = h.Cycles
			return
		}
		if h.Waiting {
			ctx.osProgressCycles = h.Cycles
			return
		}
		if h.Cycles-ctx.osProgressCycles <= budget {
			return
		}
		ctx.Stats.WatchdogFires++
		m.halt(ctx, fmt.Sprintf(
			"no OS progress in %d cycles under degraded mode", budget))
		return
	}
	if ctx.World() == WorldFirmware && ctx.VirtWaiting && m.fwWakeupPossible(ctx) {
		// Legitimately idle: a wakeup will (or still can) arrive, so the
		// firmware is waiting, not stuck. Slide both clocks.
		ctx.fwEnterCycles = h.Cycles
		ctx.osProgressCycles = h.Cycles
		return
	}
	if !ctx.osLive {
		if ctx.World() != WorldFirmware {
			return
		}
		if h.Cycles-ctx.fwEnterCycles <= budget {
			return
		}
		m.watchdogFire(ctx, fmt.Sprintf(
			"firmware exceeded its %d-cycle budget before OS launch", budget))
		return
	}
	if ctx.World() == WorldOS {
		if h.Instret != ctx.lastOSInstret {
			// The OS retired something: progress. (The baseline is resynced
			// at every OS-world entry, so this can only be OS retirement.)
			ctx.lastOSInstret = h.Instret
			ctx.osProgressCycles = h.Cycles
			return
		}
		if h.Waiting {
			// The OS parked itself in wfi: idle, not starved.
			ctx.osProgressCycles = h.Cycles
			return
		}
	}
	if h.Cycles-ctx.osProgressCycles <= budget {
		return
	}
	m.watchdogFire(ctx, fmt.Sprintf(
		"no OS progress in %d cycles (firmware stuck or OS starved)", budget))
}

// fwWakeupPossible reports whether anything can still wake the firmware's
// virtual wfi: an enabled virtual interrupt already pending, an enabled
// virtual timer with an armed comparator (time is monotonic, so it will
// fire), or an enabled software interrupt with another hart still running
// to send it. An enabled mie alone is not enough — a firmware sleeping on
// interrupt sources that no longer exist is stuck, not idle.
func (m *Monitor) fwWakeupPossible(ctx *HartCtx) bool {
	v := ctx.V
	enabled := v.Mie & rv.MIntMask
	if enabled == 0 {
		return false
	}
	if m.virtMip(ctx)&enabled != 0 {
		return true
	}
	if enabled&(1<<rv.IntMTimer) != 0 &&
		m.vclint.VirtMtimecmp(ctx.Hart.ID) != ^uint64(0) {
		return true
	}
	if enabled&(1<<rv.IntMSoft) != 0 {
		for _, other := range m.Ctx {
			if other != ctx && !other.Hart.Halted && !other.Hart.Stopped {
				return true
			}
		}
	}
	return false
}

// watchdogFire records the expiry and runs containment.
func (m *Monitor) watchdogFire(ctx *HartCtx, reason string) {
	h := ctx.Hart
	ctx.Stats.WatchdogFires++
	m.observeContain(ctx, "watchdog:fire")
	h.ChargeCycles(h.Cfg.Cost.MonitorEntry)
	f := m.newFault(ctx, FaultWatchdog, reason)
	prev := ctx.World()
	vpc := m.misbehave(ctx, f, h.PC)
	if h.Halted {
		return
	}
	m.resume(ctx, prev, vpc)
}
