package core

import (
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// World switches (paper §4.1): from firmware to the OS the monitor installs
// the virtual CSRs into the physical registers — except those required for
// emulation or isolation, such as PMP and mie — and from the OS to firmware
// it loads the physical CSRs into the virtual copies and installs
// well-defined values in the physical registers. Both directions reprogram
// the PMP file and flush the TLB.

// monitorMIE is the physical mie value the monitor keeps for itself: it
// intercepts all M-mode interrupts.
const monitorMIE = rv.MIntMask

// physTrapCtl is the set of mstatus trap-control bits the monitor mirrors
// from the virtual mstatus into the physical one when entering the OS
// world, so TVM/TW/TSR-gated supervisor instructions trap back to the
// virtual firmware exactly as they would on the reference machine.
const physTrapCtl = uint64(1)<<rv.MstatusTVM | 1<<rv.MstatusTW | 1<<rv.MstatusTSR

// switchWorld performs the transition bookkeeping for entering `to`.
func (m *Monitor) switchWorld(ctx *HartCtx, to World) {
	ctx.Stats.WorldSwitches++
	m.observeWorldSwitch(ctx, to) // before fwEnterCycles is re-armed below
	m.Policy.OnWorldSwitch(ctx, to)
	if m.Opts.OnWorldSwitch != nil {
		m.Opts.OnWorldSwitch(ctx, to)
	}
	if to == WorldFirmware {
		m.saveOSState(ctx)
		m.chargeCSRTransfer(ctx)
		// Arm the watchdog budget and remember where the OS resumes if the
		// firmware never comes back: the trap entry latched the OS PC in
		// mepc and its mode in MPP.
		ctx.fwEnterCycles = ctx.Hart.Cycles
		ctx.osEntry = osResume{
			PC:   ctx.Hart.CSR.Mepc,
			Mode: rv.MPP(ctx.Hart.CSR.Mstatus),
		}
	} else {
		// Resync the OS-progress baseline so the firmware's own retirement
		// is not mistaken for OS progress. The cycle clock is only armed on
		// the first entry — sliding it per-entry would blind the watchdog
		// to trap ping-pong, where the worlds alternate rapidly but the OS
		// never retires an instruction.
		ctx.lastOSInstret = ctx.Hart.Instret
		if !ctx.osLive {
			ctx.osLive = true
			ctx.osProgressCycles = ctx.Hart.Cycles
		}
		ctx.pendingSBI = nil
	}
	m.installPhysCSRs(ctx, to)
	m.installPMP(ctx, to)
	m.checkWallAfterSwitch(ctx)
	ctx.Hart.ChargeCycles(ctx.Hart.Cfg.Cost.TLBFlush)
}

// saveOSState loads the physical S-mode CSRs into the virtual copies
// (OS → firmware direction). While the firmware world runs, the virtual
// shadow is the authoritative home of the OS's supervisor state, and the
// firmware may access it through emulated CSR instructions exactly as
// M-mode software could on hardware. It charges no cycles: its callers
// that move the state on the hart's behalf (a world switch, containment)
// charge the transfer with chargeCSRTransfer.
func (m *Monitor) saveOSState(ctx *HartCtx) {
	h, v := ctx.Hart, ctx.V
	c := &h.CSR
	v.Stvec = c.Stvec
	v.Scounteren = c.Scounteren
	v.Senvcfg = c.Senvcfg
	v.Sscratch = c.Sscratch
	v.Sepc = c.Sepc
	v.Scause = c.Scause
	v.Stval = c.Stval
	v.Satp = c.Satp
	if h.Cfg.HasSstc {
		v.Stimecmp = c.Stimecmp
	}
	// The OS's sstatus fields move into the virtual mstatus.
	v.Mstatus = v.Mstatus&^vSstatusMask | c.Sstatus()&vSstatusMask
	// The OS's sie bits live in the virtual mie (sie == mie & mideleg, and
	// the virtual mideleg hardwires the S bits).
	v.Mie = v.Mie&^rv.SIntMask | c.Mie&rv.SIntMask
	// The OS's software-pending S bits (SSIP, and STIP set by the fast
	// path) are carried over too — losing them here is exactly the
	// "losses of virtual interrupts" bug class the paper's verification
	// caught (§1, §6.5).
	v.MipSW = v.MipSW&^rv.SIntMask |
		c.Mip(h.Time())&(1<<rv.IntSSoft|1<<rv.IntSTimer)
	if h.Cfg.HasH {
		m.saveHState(ctx)
	}
}

// installPhysCSRs programs the physical registers for the target world.
func (m *Monitor) installPhysCSRs(ctx *HartCtx, to World) {
	h, v := ctx.Hart, ctx.V
	c := &h.CSR
	if to == WorldFirmware {
		// Well-defined values for vM execution: nothing delegated (all
		// traps reach the monitor), bare addressing, no S-state visible.
		c.Medeleg = 0
		c.Mideleg = 0
		c.Mcounteren = 0 // vM counter reads are emulated
		c.Mie = monitorMIE
		c.WriteSatp(0)
		// Clear the supervisor-visible status bits; firmware state is
		// entirely virtual.
		c.WriteSstatus(0)
		c.Mstatus &^= physTrapCtl // physical U-mode traps regardless
		c.SetMip(0)
		if h.Cfg.HasH {
			// VS-interrupt sources must not fire while the firmware world
			// runs (mideleg is 0, so a pending VS bit would reach the
			// monitor as an M interrupt storm); the guest's hvip lives in
			// the shadow until the OS world returns. A stale hstatus.HU
			// would let the deprivileged vM execute hlv/hsv natively.
			c.Hvip = 0
			c.Hstatus &^= 1 << rv.HstatusHU
			c.Mstatus &^= 1 << rv.MstatusMPV // vM always runs with V=0
		}
		return
	}
	// Entering the OS: install the virtual supervisor state physically.
	c.Stvec = v.Stvec
	c.Scounteren = v.Scounteren
	c.Senvcfg = v.Senvcfg
	c.Sscratch = v.Sscratch
	c.Sepc = v.Sepc
	c.Scause = v.Scause
	c.Stval = v.Stval
	c.WriteSatp(v.Satp)
	if h.Cfg.HasSstc {
		c.Stimecmp = v.Stimecmp
		c.Menvcfg = v.Menvcfg & (1 << 63)
	}
	c.WriteSstatus(v.sstatus())
	// The trap-control bits (TVM, TW, TSR) the firmware configured must
	// bind the physical supervisor too: a virtual TSR=1 means the OS's
	// sret has to reach the firmware, so the physical bit mirrors the
	// virtual one. (Without this the OS would execute wfi/sret/satp
	// accesses natively that the reference machine traps — a faithfulness
	// gap the lockstep fuzzer flags immediately.)
	c.Mstatus = c.Mstatus&^physTrapCtl | v.Mstatus&physTrapCtl
	// Counter enables as the firmware configured them, so OS reads of
	// cycle/instret run natively.
	c.Mcounteren = v.Mcounteren
	// Exceptions the firmware delegated go natively to the OS; all others
	// trap to the monitor for re-injection.
	c.Medeleg = v.Medeleg
	// All S interrupts are force-delegated (paper §4.3); with H the VS
	// interrupts are hardwired-delegated too.
	c.Mideleg = rv.SIntMask
	if h.Cfg.HasH {
		c.Mideleg |= rv.VSIntMask
	}
	c.Mie = monitorMIE | v.Mie&rv.SIntMask
	c.SetMip(v.MipSW & (1<<rv.IntSSoft | 1<<rv.IntSTimer))
	if h.Cfg.HasH {
		m.installHState(ctx)
	}
	m.chargeCSRTransfer(ctx)
}

// chargeCSRTransfer accounts the cost of moving the shadow CSR file.
func (m *Monitor) chargeCSRTransfer(ctx *HartCtx) {
	n := uint64(csrTransferCount)
	if ctx.Hart.Cfg.HasH {
		n += hCSRCount
	}
	ctx.Hart.ChargeCycles(n * ctx.Hart.Cfg.Cost.CSRXfer)
}

// csrTransferCount approximates the number of CSRs moved per world switch;
// the paper's Miralis supports 84 CSRs, a large share of which are copied
// on each transition.
const (
	csrTransferCount = 84
	hCSRCount        = 21
)

func (m *Monitor) saveHState(ctx *HartCtx) {
	c, v := &ctx.Hart.CSR, ctx.V
	v.Hstatus, v.Hedeleg, v.Hideleg = c.Hstatus, c.Hedeleg, c.Hideleg
	v.Hie, v.Hcounteren, v.Hgeie = c.Hie, c.Hcounteren, c.Hgeie
	v.Htval, v.Hip, v.Hvip, v.Htinst = c.Htval, c.Hip, c.Hvip, c.Htinst
	v.Hgatp, v.Henvcfg = c.Hgatp, c.Henvcfg
	v.Vsstatus, v.Vsie, v.Vstvec, v.Vsscratch = c.Vsstatus, c.Vsie, c.Vstvec, c.Vsscratch
	v.Vsepc, v.Vscause, v.Vstval, v.Vsip, v.Vsatp = c.Vsepc, c.Vscause, c.Vstval, c.Vsip, c.Vsatp
}

func (m *Monitor) installHState(ctx *HartCtx) {
	c, v := &ctx.Hart.CSR, ctx.V
	c.Hstatus, c.Hedeleg, c.Hideleg = v.Hstatus, v.Hedeleg, v.Hideleg
	c.Hie, c.Hcounteren, c.Hgeie = v.Hie, v.Hcounteren, v.Hgeie
	c.Htval, c.Hip, c.Hvip, c.Htinst = v.Htval, v.Hip, v.Hvip, v.Htinst
	c.Hgatp, c.Henvcfg = v.Hgatp, v.Henvcfg
	c.Vsstatus, c.Vsie, c.Vstvec, c.Vsscratch = v.Vsstatus, v.Vsie, v.Vstvec, v.Vsscratch
	c.Vsepc, c.Vscause, c.Vstval, c.Vsip, c.Vsatp = v.Vsepc, v.Vscause, v.Vstval, v.Vsip, v.Vsatp
}

// installPMP programs the physical PMP file for the target world
// (paper Fig. 5). This is the cfg function of the faithful-execution
// criterion: internal/verif checks it against the reference model.
func (m *Monitor) installPMP(ctx *HartCtx, to World) {
	h := ctx.Hart
	phys := h.CSR.PMP
	cost := &h.Cfg.Cost
	n := phys.NumEntries()

	// Entry 0: Miralis self-protection — the Dorami wall. No permissions
	// and LOCKED: the monitor's own state (fault ring, boot snapshots,
	// vPMP shadow — everything inside [MiralisBase, MiralisBase+MiralisSize))
	// is walled off from every simulated mode, M included. The monitor
	// itself runs as host code and reprograms entries through Force*,
	// which models the hardware reset path and ignores locks; no simulated
	// instruction can weaken this entry short of a power cycle.
	phys.ForceAddr(pmpSelf, pmp.NAPOTAddr(MiralisBase, MiralisSize))
	phys.ForceCfg(pmpSelf, wallCfg)

	// Entry 1: virtual-device window over the CLINT: all firmware/OS
	// accesses trap for emulation.
	phys.ForceAddr(pmpDevices, pmp.NAPOTAddr(clintBase, clintSize))
	phys.ForceCfg(pmpDevices, pmp.ANapot<<3)

	// Optional PLIC window (experimental vPLIC, §4.3).
	if i := m.pmpPlic(); i >= 0 {
		phys.ForceAddr(i, pmp.NAPOTAddr(plicBase, plicSize))
		phys.ForceCfg(i, pmp.ANapot<<3)
	}
	// Optional IOPMP window (§4.3).
	if i := m.pmpIOPMP(); i >= 0 {
		phys.ForceAddr(i, pmp.NAPOTAddr(iopmpBase, iopmpSize))
		phys.ForceCfg(i, pmp.ANapot<<3)
	}

	// Policy slots.
	rules := m.Policy.PolicyPMP(ctx, to)
	p0 := m.pmpPolicy0()
	for i := 0; i < PolicySlots; i++ {
		if i < len(rules) {
			phys.ForceAddr(p0+i, rules[i].Addr)
			phys.ForceCfg(p0+i, rules[i].Cfg)
		} else {
			phys.ForceCfg(p0+i, 0)
			phys.ForceAddr(p0+i, 0)
		}
	}

	// Hardwired zero address so virtual PMP 0 in ToR mode sees a base of
	// 0, as the architecture defines for physical PMP 0.
	phys.ForceCfg(m.pmpZero(), 0)
	phys.ForceAddr(m.pmpZero(), 0)

	// Virtual PMP entries, installed at lower priority.
	mprv := to == WorldFirmware && ctx.mprvEmulationActive()
	vFirst := m.pmpVirtFirst()
	vp := ctx.V.PMP
	for i := 0; i < vp.NumEntries(); i++ {
		cfg := vp.Cfg(i)
		if to == WorldFirmware && cfg&pmp.CfgL == 0 {
			// Unlocked PMP entries do not constrain M-mode: grant RWX
			// while preserving the address-matching mode so the virtual
			// hardware behaves like the reference machine.
			if pmp.AMode(cfg) != pmp.AOff {
				cfg = cfg&^0x7 | pmp.CfgR | pmp.CfgW | pmp.CfgX
			}
		}
		if mprv {
			// Under MPRV emulation every firmware load and store must
			// trap: strip the data permissions so no higher-priority
			// virtual entry shadows the execute-only window below.
			cfg &^= pmp.CfgR | pmp.CfgW
		}
		phys.ForceAddr(vFirst+i, vp.Addr(i))
		phys.ForceCfg(vFirst+i, cfg)
	}

	// Last entry: the all-memory window.
	last := n - 1
	switch {
	case to == WorldFirmware && ctx.mprvEmulationActive():
		// MPRV emulation (paper §4.2): execute-only over all memory makes
		// every firmware load/store trap so the monitor can perform the
		// translated access on its behalf.
		phys.ForceAddr(last, rv.Mask(54))
		phys.ForceCfg(last, pmp.CfgX|pmp.ANapot<<3)
		ctx.mprvActive = true
	case to == WorldFirmware:
		// vM-mode sees all memory RWX, as M-mode would on hardware.
		phys.ForceAddr(last, rv.Mask(54))
		phys.ForceCfg(last, pmp.CfgR|pmp.CfgW|pmp.CfgX|pmp.ANapot<<3)
		ctx.mprvActive = false
	default:
		// Direct execution: S/U see exactly the virtual PMP verdicts.
		phys.ForceCfg(last, 0)
		phys.ForceAddr(last, 0)
		ctx.mprvActive = false
	}

	h.ChargeCycles(uint64(n) * cost.PMPWrite)

	// Rebuild the protection-only view used by MPRV emulation: the same
	// self/device/policy entries, backed by an allow-all entry so only the
	// monitor's and policy's protections decide. The file is reused across
	// world switches (every entry below is rewritten each time).
	pf := ctx.protFile
	if pf == nil {
		pf = pmp.NewFile(PolicySlots + 3)
	}
	pf.ForceAddr(0, pmp.NAPOTAddr(MiralisBase, MiralisSize))
	pf.ForceCfg(0, wallCfg)
	pf.ForceAddr(1, pmp.NAPOTAddr(clintBase, clintSize))
	pf.ForceCfg(1, pmp.ANapot<<3)
	for i := 0; i < PolicySlots; i++ {
		if i < len(rules) {
			pf.ForceAddr(2+i, rules[i].Addr)
			pf.ForceCfg(2+i, rules[i].Cfg)
		} else {
			pf.ForceCfg(2+i, 0)
			pf.ForceAddr(2+i, 0)
		}
	}
	pf.ForceAddr(2+PolicySlots, rv.Mask(54))
	pf.ForceCfg(2+PolicySlots, pmp.CfgR|pmp.CfgW|pmp.CfgX|pmp.ANapot<<3)
	ctx.protFile = pf
}

// mprvEmulationActive reports whether the virtual firmware has MPRV set
// with an effective privilege below M, requiring the trap-everything
// window.
func (c *HartCtx) mprvEmulationActive() bool {
	priv, _ := rv.DataPriv(c.V.Mstatus, rv.ModeM, false, false)
	return priv != rv.ModeM
}

// Device location constants (mirrors hart's memory map without importing
// the values into every call site).
const (
	clintBase = 0x0200_0000
	clintSize = 0x10000
	plicBase  = 0x0C00_0000
	plicSize  = 0x40_0000
	iopmpBase = 0x3100_0000
	iopmpSize = 0x1000
)

// resume returns control to the hart: if the virtual mode changed worlds,
// the world switch is performed; then the hart is launched at the virtual
// machine's PC in the appropriate physical mode.
func (m *Monitor) resume(ctx *HartCtx, prevWorld World, vpc uint64) {
	h := ctx.Hart
	if ctx.World() != prevWorld {
		m.switchWorld(ctx, ctx.World())
	} else if ctx.World() == WorldFirmware && ctx.mprvActive != ctx.mprvEmulationActive() {
		// MPRV toggled without a world switch: reprogram the window.
		m.installPMP(ctx, WorldFirmware)
		h.ChargeCycles(h.Cfg.Cost.TLBFlush)
	}
	var physMode rv.Mode
	if ctx.World() == WorldFirmware {
		physMode = rv.ModeU // vM executes in physical U
	} else {
		physMode = ctx.VirtMode
	}
	h.CSR.Mepc = vpc &^ 3
	h.CSR.Mstatus = rv.WithMPP(h.CSR.Mstatus, physMode)
	if h.Cfg.HasH {
		// ReturnMRET derives the physical V bit from mstatus.MPV: set it
		// for a guest (VS/VU) resuming direct execution, clear it for the
		// firmware world and for the host supervisor.
		h.CSR.Mstatus &^= 1 << rv.MstatusMPV
		if ctx.World() == WorldOS && ctx.VirtV {
			h.CSR.Mstatus |= 1 << rv.MstatusMPV
		}
	}
	// Park the physical hart while the virtual firmware waits in wfi; any
	// hardware interrupt re-enters the monitor, which re-evaluates the
	// virtual wait condition.
	h.Waiting = ctx.World() == WorldFirmware && ctx.VirtWaiting
	h.ChargeCycles(h.Cfg.Cost.MonitorExit)
	h.ReturnMRET()
}
