package verif

import (
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/refmodel"
	"govfm/internal/rv"
)

// The reference bridge: the one place where the monitor's virtual hart and
// a refmodel.State meet. The Table 2 suites here and the lockstep fuzzer
// (internal/verif/fuzz) both describe a profile with RefConfig, put a state
// into the monitor with Install, read it back with View and compare the
// two with refmodel.Diff, so a field wired on one side only fails
// TestBridgeRoundTrip.

// RefConfig describes a hart profile with pmpCount PMP entries to the
// reference model; midelegForced models the virtual hardware's hardwired
// S-interrupt delegation (paper §4.3).
func RefConfig(cfg *hart.Config, pmpCount int, midelegForced bool) *refmodel.Config {
	return &refmodel.Config{
		PMPCount:      pmpCount,
		HasSstc:       cfg.HasSstc,
		HasTimeCSR:    cfg.HasTimeCSR,
		HasH:          cfg.HasH,
		MidelegForced: midelegForced,
		CustomCSRs:    append([]uint16(nil), cfg.CustomCSRs...),
		Mvendorid:     cfg.Mvendorid,
		Marchid:       cfg.Marchid,
		Mimpid:        cfg.Mimpid,
	}
}

// HstatusWritable is the set of hstatus fields the platform implements
// (GVA, SPV, SPVP, HU, VTVM, VTW, VTSR); VSXL is fixed at 64-bit.
const HstatusWritable = uint64(1)<<rv.HstatusGVA | 1<<rv.HstatusSPV |
	1<<rv.HstatusSPVP | 1<<rv.HstatusHU | 1<<rv.HstatusVTVM |
	1<<rv.HstatusVTW | 1<<rv.HstatusVTSR

// IsCounterCSR names the free-running counters. Two machines that charge
// different cycles read different values from them (the paper's ≃
// "implicitly takes into account differences in internal
// representation"), so harnesses adopt one side's read instead of
// comparing it, and never let a program write them.
func IsCounterCSR(n uint16) bool {
	switch n {
	case rv.CSRCycle, rv.CSRMcycle, rv.CSRInstret, rv.CSRMinstret, rv.CSRTime:
		return true
	}
	return false
}

// Install writes s into ctx's virtual hart verbatim: the virtual CSR file
// and PMP, the virtual CLINT's MSIP and MTIP lines from s.MipHW, the wait
// state, the virtual mode, and the registers and PC the two worlds share.
// The physical hart takes the mode direct execution gives it (U for vM),
// and VerifInstallState projects the virtual state onto it as a world
// switch would. Time, Cycle and Instret are clock-driven and not written.
func Install(mon *core.Monitor, ctx *core.HartCtx, s *refmodel.State) {
	h, v := ctx.Hart, ctx.V
	v.Mstatus = s.Status.Bits()
	v.Medeleg, v.Mideleg, v.Mie, v.MipSW = s.Medeleg, s.Mideleg, s.Mie, s.MipSW
	v.Mtvec, v.Mcounteren, v.Menvcfg = s.Mtvec, s.Mcounteren, s.Menvcfg
	v.Mscratch, v.Mepc, v.Mcause, v.Mtval = s.Mscratch, s.Mepc, s.Mcause, s.Mtval
	v.Mseccfg, v.Mcountinhibit, v.Mtinst, v.Mtval2 = s.Mseccfg, s.Mcountinhibit, s.Mtinst, s.Mtval2
	v.Stvec, v.Scounteren, v.Senvcfg = s.Stvec, s.Scounteren, s.Senvcfg
	v.Sscratch, v.Sepc, v.Scause, v.Stval = s.Sscratch, s.Sepc, s.Scause, s.Stval
	v.Satp, v.Stimecmp = s.Satp, s.Stimecmp
	v.Hstatus, v.Hedeleg, v.Hideleg = s.Hstatus, s.Hedeleg, s.Hideleg
	v.Hie, v.Hcounteren, v.Hgeie = s.Hie, s.Hcounteren, s.Hgeie
	v.Htval, v.Hip, v.Hvip = s.Htval, s.Hip, s.Hvip
	v.Htinst, v.Hgatp, v.Henvcfg = s.Htinst, s.Hgatp, s.Henvcfg
	v.Vsstatus, v.Vsie, v.Vstvec, v.Vsscratch = s.Vsstatus, s.Vsie, s.Vstvec, s.Vsscratch
	v.Vsepc, v.Vscause, v.Vstval, v.Vsip, v.Vsatp = s.Vsepc, s.Vscause, s.Vstval, s.Vsip, s.Vsatp
	for _, n := range h.Cfg.CustomCSRs {
		v.Custom[n] = s.Custom[n]
	}
	for i := 0; i < v.PMP.NumEntries(); i++ {
		v.PMP.ForceAddr(i, s.PmpAddr[i])
		v.PMP.ForceCfg(i, s.PmpCfg[i])
	}

	vc := mon.VClint()
	deadline := ^uint64(0)
	if s.MipHW>>rv.IntMTimer&1 != 0 {
		deadline = vc.Time() // expired: vMTIP pending
	}
	vc.SetVirtMtimecmp(h.ID, deadline)
	vc.SetVirtMsip(h.ID, s.MipHW>>rv.IntMSoft&1 != 0)
	ctx.VirtWaiting, h.Waiting = s.WFI, s.WFI

	ctx.VirtMode, ctx.VirtV = rv.Mode(s.Priv), s.V
	h.Regs, h.PC = s.Regs, s.PC
	h.Regs[0] = 0
	h.Mode, h.V = rv.Mode(s.Priv), s.V
	if s.Priv == refmodel.M {
		h.Mode, h.V = rv.ModeU, false // vM runs deprivileged
	}
	mon.VerifInstallState(ctx)
}

// View reads ctx's virtual hart back as a reference state. It reads the
// monitor's side only (Priv from ctx.VirtMode, V from ctx.VirtV) and never
// syncs from the physical hart: after an emulated mret the physical S-CSRs
// are stale until the world switch, so the Table 2 harness, which only
// emulates, must not sync. The lockstep engine, which direct-executes,
// calls Monitor.VerifSyncVirtState first and takes the mode from the
// physical hart in the OS world.
func View(mon *core.Monitor, ctx *core.HartCtx) *refmodel.State {
	h, v := ctx.Hart, ctx.V
	s := refmodel.NewState()
	s.Regs, s.PC = h.Regs, h.PC
	s.Regs[0] = 0
	s.Priv, s.V = uint8(ctx.VirtMode), ctx.VirtV
	s.Status = refmodel.MstatusFromBits(v.Mstatus)
	s.Medeleg, s.Mideleg, s.Mie, s.MipSW = v.Medeleg, v.Mideleg, v.Mie, v.MipSW
	s.MipHW = mon.VClint().VirtPending(h.ID)
	s.Mtvec, s.Mcounteren, s.Menvcfg = v.Mtvec, v.Mcounteren, v.Menvcfg
	s.Mscratch, s.Mepc, s.Mcause, s.Mtval = v.Mscratch, v.Mepc, v.Mcause, v.Mtval
	s.Mseccfg, s.Mcountinhibit, s.Mtinst, s.Mtval2 = v.Mseccfg, v.Mcountinhibit, v.Mtinst, v.Mtval2
	s.Stvec, s.Scounteren, s.Senvcfg = v.Stvec, v.Scounteren, v.Senvcfg
	s.Sscratch, s.Sepc, s.Scause, s.Stval = v.Sscratch, v.Sepc, v.Scause, v.Stval
	s.Satp, s.Stimecmp = v.Satp, v.Stimecmp
	s.Hstatus, s.Hedeleg, s.Hideleg = v.Hstatus, v.Hedeleg, v.Hideleg
	s.Hie, s.Hcounteren, s.Hgeie = v.Hie, v.Hcounteren, v.Hgeie
	s.Htval, s.Hip, s.Hvip = v.Htval, v.Hip, v.Hvip
	s.Htinst, s.Hgatp, s.Henvcfg = v.Htinst, v.Hgatp, v.Henvcfg
	s.Vsstatus, s.Vsie, s.Vstvec, s.Vsscratch = v.Vsstatus, v.Vsie, v.Vstvec, v.Vsscratch
	s.Vsepc, s.Vscause, s.Vstval, s.Vsip, s.Vsatp = v.Vsepc, v.Vscause, v.Vstval, v.Vsip, v.Vsatp
	for _, n := range h.Cfg.CustomCSRs {
		s.Custom[n] = v.Custom[n]
	}
	for i := 0; i < v.PMP.NumEntries(); i++ {
		s.PmpCfg[i], s.PmpAddr[i] = v.PMP.Cfg(i), v.PMP.Addr(i)
	}
	s.WFI = ctx.VirtWaiting || h.Waiting
	return s
}
