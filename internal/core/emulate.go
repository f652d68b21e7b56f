package core

import (
	"fmt"

	"govfm/internal/rv"
)

// The instruction emulator (paper §4.1): the biggest subsystem of the
// monitor and the largest attack surface exposed to the firmware. It
// executes privileged instructions on the virtual CSR shadow while the
// firmware runs deprivileged. Every path here is covered by the
// faithful-emulation differential tests in internal/verif.

// emulate executes the instruction that trapped out of vM-mode and returns
// the next virtual PC. Under containment it is a panic boundary: the
// emulator is the largest attack surface the firmware can reach, so a Go
// panic here is converted into a MonitorFault and handled as firmware
// misbehavior instead of killing the process.
func (m *Monitor) emulate(ctx *HartCtx, raw uint32, epc uint64) (vpc uint64) {
	if m.Opts.Containment {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			f := m.newFault(ctx, FaultPanic,
				fmt.Sprintf("panic emulating %#08x: %v", raw, r))
			vpc = m.misbehave(ctx, f, epc)
		}()
	}
	vpc = m.emulateInstr(ctx, raw, epc)
	if m.Opts.OnEmulate != nil {
		m.Opts.OnEmulate(ctx, raw)
	}
	return vpc
}

func (m *Monitor) emulateInstr(ctx *HartCtx, raw uint32, epc uint64) uint64 {
	h := ctx.Hart
	h.ChargeCycles(h.Cfg.Cost.EmuOp)
	ctx.Stats.Emulations++

	ins := decode(raw)
	ctx.EmuByOp[ins.Op]++
	switch ins.Op {
	case EmuMRET:
		return m.emulateMRET(ctx, raw, epc)
	case EmuSRET:
		return m.emulateSRET(ctx, raw, epc)
	case EmuWFI:
		return m.emulateWFI(ctx, raw, epc)
	case EmuSFENCE:
		if ctx.VirtV {
			// Guest context: sfence.vma is trapped virtually from VU, and
			// from VS under hstatus.VTVM.
			if ctx.VirtMode == rv.ModeU ||
				ctx.V.Hstatus&(1<<rv.HstatusVTVM) != 0 {
				return m.injectVirtTrap(ctx, rv.ExcVirtualInstr, uint64(raw), epc)
			}
		} else if ctx.VirtMode == rv.ModeU ||
			(ctx.VirtMode == rv.ModeS && ctx.V.Mstatus&(1<<rv.MstatusTVM) != 0) {
			return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
		}
		// Address-translation fence: nothing to do for the shadow state;
		// charge the flush the real instruction would cost.
		h.ChargeCycles(h.Cfg.Cost.TLBFlush)
		return epc + 4
	case EmuHFenceV, EmuHFenceG:
		if !h.Cfg.HasH {
			return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
		}
		if ctx.VirtV {
			return m.injectVirtTrap(ctx, rv.ExcVirtualInstr, uint64(raw), epc)
		}
		if ctx.VirtMode == rv.ModeU ||
			(ins.Op == EmuHFenceG && ctx.VirtMode == rv.ModeS &&
				ctx.V.Mstatus&(1<<rv.MstatusTVM) != 0) {
			return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
		}
		h.ChargeCycles(h.Cfg.Cost.TLBFlush)
		return epc + 4
	case EmuHLSV:
		// hlv/hlvx/hsv: Hart.hlsv's gating against the shadow CSRs, then
		// one access in the virtual machine's two-stage context at the
		// privilege the virtual hstatus.SPVP selects.
		store, size, signed, hlvx, ok := rv.HLSVDecode(raw)
		switch {
		case !ok || !h.Cfg.HasH:
			return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
		case ctx.VirtV:
			return m.injectVirtTrap(ctx, rv.ExcVirtualInstr, uint64(raw), epc)
		case ctx.VirtMode == rv.ModeU && rv.Bit(ctx.V.Hstatus, rv.HstatusHU) == 0:
			return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
		}
		ins.Op, ins.Size, ins.Signed = EmuLoad, size, signed
		if store {
			ins.Op = EmuStore
		}
		a := emuAccess{ins: ins, va: h.Reg(ins.Rs1), priv: rv.ModeU,
			virt: true, hlvx: hlvx, xlate: true, each: 1}
		if rv.Bit(ctx.V.Hstatus, rv.HstatusSPVP) != 0 {
			a.priv = rv.ModeS
		}
		return m.emulateAccess(ctx, &a, epc)
	case EmuFENCE, EmuFENCEI:
		return epc + 4
	case EmuCSRRW, EmuCSRRS, EmuCSRRC, EmuCSRRWI, EmuCSRRSI, EmuCSRRCI:
		return m.emulateCSR(ctx, ins, epc)
	case EmuECALL:
		cause := rv.ExcEcallFromU
		switch ctx.VirtMode {
		case rv.ModeS:
			cause = rv.ExcEcallFromS
			if ctx.VirtV {
				cause = rv.ExcEcallFromVS
			}
		case rv.ModeM:
			cause = rv.ExcEcallFromM
		}
		return m.injectVirtTrap(ctx, cause, 0, epc)
	case EmuEBREAK:
		return m.injectVirtTrap(ctx, rv.ExcBreakpoint, epc, epc)
	default:
		// Not a privileged instruction the virtual hardware implements:
		// the reference machine would raise an illegal-instruction trap.
		return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
	}
}

// emulateMRET performs the virtual mret. When the virtual MPP is below M
// this is a world switch: the firmware hands control to the OS.
func (m *Monitor) emulateMRET(ctx *HartCtx, raw uint32, epc uint64) uint64 {
	v := ctx.V
	if ctx.VirtMode != rv.ModeM {
		return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
	}
	prev := v.MPP()
	// Virtual interrupt-enable stack.
	if v.Mstatus&(1<<7) != 0 { // MPIE
		v.Mstatus |= 1 << 3
	} else {
		v.Mstatus &^= 1 << 3
	}
	v.Mstatus |= 1 << 7 // MPIE = 1
	v.SetMPP(rv.ModeU)
	if prev != rv.ModeM {
		v.Mstatus &^= 1 << rv.MstatusMPRV
	}
	if ctx.Hart.Cfg.HasH {
		ctx.VirtV = prev != rv.ModeM && v.Mstatus>>rv.MstatusMPV&1 != 0
		v.Mstatus &^= 1 << rv.MstatusMPV
	}
	if ctx.vTrapDepth > 0 {
		ctx.vTrapDepth--
	}
	ctx.VirtMode = prev
	return v.Mepc
}

// emulateSRET performs the virtual sret (vM-mode may execute it, as real
// M-mode may).
func (m *Monitor) emulateSRET(ctx *HartCtx, raw uint32, epc uint64) uint64 {
	v := ctx.V
	if ctx.VirtV {
		// Guest sret: trapped virtually from VU, and from VS under
		// hstatus.VTSR; otherwise it unstacks vsstatus and stays in V.
		if ctx.VirtMode == rv.ModeU ||
			v.Hstatus&(1<<rv.HstatusVTSR) != 0 {
			return m.injectVirtTrap(ctx, rv.ExcVirtualInstr, uint64(raw), epc)
		}
		vs := v.Vsstatus
		prev := rv.Mode(vs >> 8 & 1)
		vs = vs&^(1<<1) | vs>>4&(1<<1) // SIE <- SPIE
		vs |= 1 << 5                   // SPIE = 1
		vs &^= 1 << 8                  // SPP = U
		v.Vsstatus = vs
		ctx.VirtMode = prev
		return v.Vsepc
	}
	if ctx.VirtMode == rv.ModeU ||
		(ctx.VirtMode == rv.ModeS && v.Mstatus&(1<<rv.MstatusTSR) != 0) {
		return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
	}
	prev := rv.Mode(v.Mstatus >> 8 & 1)
	if v.Mstatus&(1<<5) != 0 { // SPIE
		v.Mstatus |= 1 << 1 // SIE
	} else {
		v.Mstatus &^= 1 << 1
	}
	v.Mstatus |= 1 << 5  // SPIE = 1
	v.Mstatus &^= 1 << 8 // SPP = U
	v.Mstatus &^= 1 << rv.MstatusMPRV
	if ctx.Hart.Cfg.HasH {
		ctx.VirtV = v.Hstatus&(1<<rv.HstatusSPV) != 0
		v.Hstatus &^= 1 << rv.HstatusSPV
	}
	ctx.VirtMode = prev
	return v.Sepc
}

// emulateWFI puts the virtual firmware to sleep until a virtual interrupt
// pends; the physical hart is parked in its own wait state so the machine
// does not spin.
func (m *Monitor) emulateWFI(ctx *HartCtx, raw uint32, epc uint64) uint64 {
	if ctx.VirtV {
		// Guest wfi: mstatus.TW traps it as illegal from any guest mode;
		// otherwise VU, and VS under hstatus.VTW, trap virtually.
		if ctx.V.Mstatus&(1<<rv.MstatusTW) != 0 {
			return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
		}
		if ctx.VirtMode == rv.ModeU ||
			ctx.V.Hstatus&(1<<rv.HstatusVTW) != 0 {
			return m.injectVirtTrap(ctx, rv.ExcVirtualInstr, uint64(raw), epc)
		}
	} else if ctx.VirtMode == rv.ModeU ||
		(ctx.VirtMode == rv.ModeS && ctx.V.Mstatus&(1<<rv.MstatusTW) != 0) {
		return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(raw), epc)
	}
	if m.Opts.Containment && ctx.VirtMode == rv.ModeM &&
		ctx.V.Mie&rv.MIntMask == 0 {
		// No virtual M interrupt source is enabled: nothing can ever wake
		// this wfi (checkVirtInterrupt wakes on pending & vmie only), so
		// the firmware has locked itself up.
		f := m.newFault(ctx, FaultLockup,
			"wfi in vM-mode with all virtual M interrupts masked")
		return m.misbehave(ctx, f, epc)
	}
	ctx.VirtWaiting = true
	// The physical hart waits too; the monitor's M-mode interrupt enables
	// stay armed, so any hardware interrupt wakes it and re-enters the
	// monitor, which re-evaluates virtual interrupts.
	ctx.Hart.Waiting = true
	return epc + 4
}

// emulateCSR executes a virtual CSR instruction.
func (m *Monitor) emulateCSR(ctx *HartCtx, ins EmuInstr, epc uint64) uint64 {
	h := ctx.Hart
	wantWrite := true
	wantRead := true
	switch ins.Op {
	case EmuCSRRW, EmuCSRRWI:
		wantRead = ins.Rd != 0
	case EmuCSRRS, EmuCSRRC, EmuCSRRSI, EmuCSRRCI:
		wantWrite = ins.Rs1 != 0
	}
	if wantWrite && rv.CSRReadOnly(ins.CSR) {
		return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(ins.Raw), epc)
	}
	csr, cause := m.vcsrCheck(ctx, ins.CSR)
	if cause != 0 {
		return m.injectVirtTrap(ctx, cause, uint64(ins.Raw), epc)
	}
	old, ok := m.vcsrRead(ctx, csr)
	if !ok {
		return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(ins.Raw), epc)
	}
	if wantWrite {
		src := h.Reg(ins.Rs1)
		if ins.Op >= EmuCSRRWI {
			src = ins.Zimm
		}
		var newVal uint64
		switch ins.Op {
		case EmuCSRRW, EmuCSRRWI:
			newVal = src
		case EmuCSRRS, EmuCSRRSI:
			newVal = old | src
		case EmuCSRRC, EmuCSRRCI:
			newVal = old &^ src
		}
		if !m.vcsrWrite(ctx, csr, newVal) {
			return m.injectVirtTrap(ctx, rv.ExcIllegalInstr, uint64(ins.Raw), epc)
		}
	}
	if wantRead {
		h.SetReg(ins.Rd, old)
	}
	return epc + 4
}

// vcsrAccessible reports whether a CSR access from the current virtual
// mode would succeed. In production the emulator only ever runs for
// vM-mode (which passes every check), but the emulator is total over
// modes so the faithful-emulation criterion holds state-for-state
// against the reference model.
func (m *Monitor) vcsrAccessible(ctx *HartCtx, csr uint16) bool {
	_, cause := m.vcsrCheck(ctx, csr)
	return cause == 0
}

// vcsrCheck performs the existence, V=1 S-to-VS substitution, privilege,
// and gating checks for a virtual CSR access (the monitor's rendering of
// the Zicsr chapter extended by the hypervisor chapter, cross-checked
// against refmodel's csrCheck). It returns the CSR number the access
// actually touches plus a zero cause on success, or the denial cause
// (illegal-instruction or virtual-instruction).
func (m *Monitor) vcsrCheck(ctx *HartCtx, csr uint16) (uint16, uint64) {
	v := ctx.V
	if !m.vcsrExists(ctx, csr) {
		return csr, rv.ExcIllegalInstr
	}
	mapped := csr
	if ctx.VirtV {
		// From V=1, S-level CSRs are virtual-instruction faults for VU
		// code and for the hypervisor's own registers; the architectural
		// S CSRs are substituted by their VS shadows.
		if rv.CSRPriv(csr) == rv.ModeS && (ctx.VirtMode == rv.ModeU || vcsrIsHypLevel(csr)) {
			return csr, rv.ExcVirtualInstr
		}
		switch csr {
		case rv.CSRSstatus:
			mapped = rv.CSRVsstatus
		case rv.CSRSie:
			mapped = rv.CSRVsie
		case rv.CSRStvec:
			mapped = rv.CSRVstvec
		case rv.CSRSscratch:
			mapped = rv.CSRVsscratch
		case rv.CSRSepc:
			mapped = rv.CSRVsepc
		case rv.CSRScause:
			mapped = rv.CSRVscause
		case rv.CSRStval:
			mapped = rv.CSRVstval
		case rv.CSRSip:
			mapped = rv.CSRVsip
		case rv.CSRSatp:
			if v.Hstatus&(1<<rv.HstatusVTVM) != 0 {
				return csr, rv.ExcVirtualInstr
			}
			mapped = rv.CSRVsatp
		case rv.CSRStimecmp:
			// No vstimecmp: the access traps to the hypervisor when
			// Sstc is live and is illegal otherwise.
			if v.Menvcfg>>63&1 != 0 {
				return csr, rv.ExcVirtualInstr
			}
			return csr, rv.ExcIllegalInstr
		}
	}
	if ctx.VirtMode < rv.CSRPriv(mapped) {
		return mapped, rv.ExcIllegalInstr
	}
	switch mapped {
	case rv.CSRCycle, rv.CSRTime, rv.CSRInstret:
		bit := uint(mapped - rv.CSRCycle)
		if ctx.VirtMode < rv.ModeM && rv.Bit(v.Mcounteren, bit) == 0 {
			return mapped, rv.ExcIllegalInstr
		}
		if ctx.VirtV && rv.Bit(v.Hcounteren, bit) == 0 {
			return mapped, rv.ExcVirtualInstr
		}
		if ctx.VirtMode == rv.ModeU && rv.Bit(v.Scounteren, bit) == 0 {
			if ctx.VirtV {
				return mapped, rv.ExcVirtualInstr
			}
			return mapped, rv.ExcIllegalInstr
		}
	case rv.CSRSatp, rv.CSRHgatp:
		if ctx.VirtMode == rv.ModeS && v.Mstatus&(1<<rv.MstatusTVM) != 0 {
			return mapped, rv.ExcIllegalInstr
		}
	case rv.CSRStimecmp:
		if ctx.VirtMode == rv.ModeS && v.Menvcfg>>63&1 == 0 {
			return mapped, rv.ExcIllegalInstr
		}
	}
	return mapped, 0
}

// vcsrExists reports whether the virtual hardware implements csr at all,
// independent of privilege and gating.
func (m *Monitor) vcsrExists(ctx *HartCtx, csr uint16) bool {
	cfg := ctx.Hart.Cfg
	switch csr {
	case rv.CSRTime:
		return cfg.HasTimeCSR
	case rv.CSRStimecmp:
		return cfg.HasSstc
	}
	if i, ok := rv.IsPmpaddr(csr); ok {
		return i < ctx.V.PMP.NumEntries()
	}
	if i, ok := rv.IsPmpcfg(csr); ok {
		return i%2 == 0 && i*4 < ctx.V.PMP.NumEntries()
	}
	if vcsrIsH(csr) {
		return cfg.HasH
	}
	if _, custom := ctx.V.Custom[csr]; custom {
		return true
	}
	if cfg.HasCustomCSR(csr) {
		return true
	}
	return vcsrKnown(csr)
}

// vcsrIsHypLevel mirrors refmodel csrIsHyp: the hypervisor and VS CSRs
// that always raise a virtual-instruction exception when touched from
// V=1 (the monitor's mtinst/mtval2 are M-level and excluded).
func vcsrIsHypLevel(csr uint16) bool {
	switch csr {
	case rv.CSRMtinst, rv.CSRMtval2:
		return false
	}
	return vcsrIsH(csr)
}

// vcsrIsH reports whether csr belongs to the hypervisor-extension subset,
// which exists only on platforms with H.
func vcsrIsH(csr uint16) bool {
	switch csr {
	case rv.CSRHstatus, rv.CSRHedeleg, rv.CSRHideleg, rv.CSRHie,
		rv.CSRHcounteren, rv.CSRHgeie, rv.CSRHtval, rv.CSRHip, rv.CSRHvip,
		rv.CSRHtinst, rv.CSRHenvcfg, rv.CSRHgatp, rv.CSRHgeip,
		rv.CSRMtinst, rv.CSRMtval2,
		rv.CSRVsstatus, rv.CSRVsie, rv.CSRVstvec, rv.CSRVsscratch,
		rv.CSRVsepc, rv.CSRVscause, rv.CSRVstval, rv.CSRVsip, rv.CSRVsatp:
		return true
	}
	return false
}

// vcsrKnown enumerates the standard CSRs the virtual hardware implements.
func vcsrKnown(csr uint16) bool {
	switch csr {
	case rv.CSRMstatus, rv.CSRMisa, rv.CSRMedeleg, rv.CSRMideleg, rv.CSRMie,
		rv.CSRMtvec, rv.CSRMcounteren, rv.CSRMenvcfg, rv.CSRMcountinhibit,
		rv.CSRMscratch, rv.CSRMepc, rv.CSRMcause, rv.CSRMtval, rv.CSRMip,
		rv.CSRMseccfg, rv.CSRMvendorid, rv.CSRMarchid, rv.CSRMimpid,
		rv.CSRMhartid, rv.CSRMconfigptr, rv.CSRMcycle, rv.CSRMinstret,
		rv.CSRSstatus, rv.CSRSie, rv.CSRStvec, rv.CSRScounteren,
		rv.CSRSenvcfg, rv.CSRSscratch, rv.CSRSepc, rv.CSRScause,
		rv.CSRStval, rv.CSRSip, rv.CSRSatp, rv.CSRCycle, rv.CSRInstret,
		rv.CSRHstatus, rv.CSRHedeleg, rv.CSRHideleg, rv.CSRHie,
		rv.CSRHcounteren, rv.CSRHgeie, rv.CSRHtval, rv.CSRHip, rv.CSRHvip,
		rv.CSRHtinst, rv.CSRHenvcfg, rv.CSRHgatp,
		rv.CSRVsstatus, rv.CSRVsie, rv.CSRVstvec, rv.CSRVsscratch,
		rv.CSRVsepc, rv.CSRVscause, rv.CSRVstval, rv.CSRVsip, rv.CSRVsatp:
		return true
	}
	return rv.IsHpmcounter(csr)
}

// vcsrRead returns the virtual CSR value.
func (m *Monitor) vcsrRead(ctx *HartCtx, csr uint16) (uint64, bool) {
	v := ctx.V
	h := ctx.Hart
	switch csr {
	case rv.CSRMstatus:
		return v.Mstatus, true
	case rv.CSRMisa:
		misa := rv.MisaMXL64 | rv.MisaI | rv.MisaM | rv.MisaA | rv.MisaS | rv.MisaU
		if h.Cfg.HasH {
			misa |= rv.MisaH
		}
		return misa, true
	case rv.CSRMedeleg:
		return v.Medeleg, true
	case rv.CSRMideleg:
		return v.Mideleg, true
	case rv.CSRMie:
		return v.Mie, true
	case rv.CSRMtvec:
		return v.Mtvec, true
	case rv.CSRMcounteren:
		return v.Mcounteren, true
	case rv.CSRMenvcfg:
		return v.Menvcfg, true
	case rv.CSRMcountinhibit:
		return v.Mcountinhibit, true
	case rv.CSRMscratch:
		return v.Mscratch, true
	case rv.CSRMepc:
		return v.Mepc, true
	case rv.CSRMcause:
		return v.Mcause, true
	case rv.CSRMtval:
		return v.Mtval, true
	case rv.CSRMip:
		return m.virtMip(ctx), true
	case rv.CSRMseccfg:
		return v.Mseccfg, true
	case rv.CSRMvendorid:
		return h.Cfg.Mvendorid, true
	case rv.CSRMarchid:
		return h.Cfg.Marchid, true
	case rv.CSRMimpid:
		return h.Cfg.Mimpid, true
	case rv.CSRMhartid:
		return uint64(h.ID), true
	case rv.CSRMconfigptr:
		return 0, true
	case rv.CSRMcycle, rv.CSRCycle:
		return h.Cycles, true
	case rv.CSRMinstret, rv.CSRInstret:
		return h.Instret, true
	case rv.CSRTime:
		return h.Time(), true
	case rv.CSRSstatus:
		return v.sstatus(), true
	case rv.CSRSie:
		return v.Mie & v.Mideleg & rv.SIntMask, true
	case rv.CSRStvec:
		return v.Stvec, true
	case rv.CSRScounteren:
		return v.Scounteren, true
	case rv.CSRSenvcfg:
		return v.Senvcfg, true
	case rv.CSRSscratch:
		return v.Sscratch, true
	case rv.CSRSepc:
		return v.Sepc, true
	case rv.CSRScause:
		return v.Scause, true
	case rv.CSRStval:
		return v.Stval, true
	case rv.CSRSip:
		return m.virtMip(ctx) & v.Mideleg & rv.SIntMask, true
	case rv.CSRSatp:
		return v.Satp, true
	case rv.CSRStimecmp:
		return v.Stimecmp, true
	case rv.CSRHstatus:
		return v.Hstatus, true
	case rv.CSRHedeleg:
		return v.Hedeleg, true
	case rv.CSRHideleg:
		return v.Hideleg, true
	case rv.CSRHie:
		return v.Hie, true
	case rv.CSRHcounteren:
		return v.Hcounteren, true
	case rv.CSRHgeie:
		return 0, true // no guest-external interrupt files
	case rv.CSRHtval:
		return v.Htval, true
	case rv.CSRHip:
		// hip is a view of the virtual-interrupt pending bits.
		return v.Hvip & rv.VSIntMask, true
	case rv.CSRHvip:
		return v.Hvip, true
	case rv.CSRHtinst:
		return v.Htinst, true
	case rv.CSRHenvcfg:
		return 0, true // no henvcfg-gated features for guests
	case rv.CSRHgatp:
		return v.Hgatp, true
	case rv.CSRHgeip:
		return 0, true
	case rv.CSRMtinst:
		return v.Mtinst, true
	case rv.CSRMtval2:
		return v.Mtval2, true
	case rv.CSRVsstatus:
		return v.Vsstatus, true
	case rv.CSRVsie:
		return (v.Hie & v.Hideleg & rv.VSIntMask) >> 1, true
	case rv.CSRVstvec:
		return v.Vstvec, true
	case rv.CSRVsscratch:
		return v.Vsscratch, true
	case rv.CSRVsepc:
		return v.Vsepc, true
	case rv.CSRVscause:
		return v.Vscause, true
	case rv.CSRVstval:
		return v.Vstval, true
	case rv.CSRVsip:
		return (v.Hvip & v.Hideleg & rv.VSIntMask) >> 1, true
	case rv.CSRVsatp:
		return v.Vsatp, true
	}
	if i, ok := rv.IsPmpaddr(csr); ok {
		return v.PMP.Addr(i), true
	}
	if i, ok := rv.IsPmpcfg(csr); ok {
		return v.PMP.CfgReg(i), true
	}
	if rv.IsHpmcounter(csr) {
		return 0, true
	}
	if h.Cfg.HasCustomCSR(csr) {
		return v.Custom[csr], true
	}
	return 0, false
}

// vcsrWrite stores into the virtual CSR, applying the virtual WARL rules.
func (m *Monitor) vcsrWrite(ctx *HartCtx, csr uint16, val uint64) bool {
	v := ctx.V
	h := ctx.Hart
	switch csr {
	case rv.CSRMstatus:
		v.writeMstatus(val)
	case rv.CSRMisa:
		// WARL; the virtual misa is hardwired.
	case rv.CSRMedeleg:
		mask := vMedelegMask
		if v.hasH {
			mask |= vMedelegHMask
		}
		v.Medeleg = val & mask
	case rv.CSRMideleg:
		v.writeMideleg(val)
	case rv.CSRMie:
		v.Mie = val & vMieMask
	case rv.CSRMtvec:
		v.Mtvec = vLegalizeTvec(val)
	case rv.CSRMcounteren:
		v.Mcounteren = val & 0xFFFF_FFFF
	case rv.CSRMenvcfg:
		var mask uint64
		if h.Cfg.HasSstc {
			mask |= 1 << 63
		}
		v.Menvcfg = val & mask
	case rv.CSRMcountinhibit:
		v.Mcountinhibit = val & 0xFFFF_FFFD
	case rv.CSRMscratch:
		v.Mscratch = val
	case rv.CSRMepc:
		v.Mepc = vLegalizeEpc(val)
	case rv.CSRMcause:
		v.Mcause = val
	case rv.CSRMtval:
		v.Mtval = val
	case rv.CSRMtinst:
		v.Mtinst = val
	case rv.CSRMtval2:
		v.Mtval2 = val
	case rv.CSRMip:
		m.writeVirtMip(ctx, val)
	case rv.CSRMseccfg:
		v.Mseccfg = val & 7
	case rv.CSRMcycle:
		// The virtual cycle counter is the physical one; writes are
		// filtered (the firmware must not warp the host's counters).
	case rv.CSRMinstret:
	case rv.CSRSstatus:
		v.writeSstatus(val)
	case rv.CSRSie:
		mask := v.Mideleg & rv.SIntMask
		v.Mie = v.Mie&^mask | val&mask
	case rv.CSRStvec:
		v.Stvec = vLegalizeTvec(val)
	case rv.CSRScounteren:
		v.Scounteren = val & 0xFFFF_FFFF
	case rv.CSRSenvcfg:
		v.Senvcfg = val & 1
	case rv.CSRSscratch:
		v.Sscratch = val
	case rv.CSRSepc:
		v.Sepc = vLegalizeEpc(val)
	case rv.CSRScause:
		v.Scause = val
	case rv.CSRStval:
		v.Stval = val
	case rv.CSRSip:
		if ctx.VirtMode == rv.ModeM {
			m.writeVirtMip(ctx, val)
		} else {
			mask := v.Mideleg & (1 << rv.IntSSoft)
			v.MipSW = v.MipSW&^mask | val&mask
		}
	case rv.CSRSatp:
		v.writeSatp(val)
	case rv.CSRStimecmp:
		v.Stimecmp = val
	case rv.CSRHstatus:
		v.Hstatus = val&vHstatusWritable | vHstatusVSXL
	case rv.CSRHedeleg:
		v.Hedeleg = val & vHedelegMask
	case rv.CSRHideleg:
		v.Hideleg = val & rv.VSIntMask
	case rv.CSRHie:
		v.Hie = val & rv.VSIntMask
	case rv.CSRHcounteren:
		v.Hcounteren = val & 0xFFFF_FFFF
	case rv.CSRHgeie:
		// Hardwired zero: no guest-external interrupt files.
	case rv.CSRHtval:
		v.Htval = val
	case rv.CSRHip:
		// Only VSSIP is writable; it aliases hvip.VSSIP.
		v.Hvip = v.Hvip&^(1<<rv.IntVSSoft) | val&(1<<rv.IntVSSoft)
	case rv.CSRHvip:
		v.Hvip = val & rv.VSIntMask
	case rv.CSRHtinst:
		v.Htinst = val
	case rv.CSRHenvcfg:
		// Hardwired zero: no henvcfg-gated features for guests.
	case rv.CSRHgatp:
		if mode := val >> 60; mode == 0 || mode == 8 {
			v.Hgatp = val &^ (uint64(3)<<58 | 3) // VMID[1:0], PPN[1:0] zero
		}
	case rv.CSRVsstatus:
		v.Vsstatus = val&vVsstatusMask | uint64(2)<<32
	case rv.CSRVsie:
		mask := v.Hideleg & rv.VSIntMask
		v.Hie = v.Hie&^mask | val<<1&mask
	case rv.CSRVstvec:
		v.Vstvec = vLegalizeTvec(val)
	case rv.CSRVsscratch:
		v.Vsscratch = val
	case rv.CSRVsepc:
		v.Vsepc = vLegalizeEpc(val)
	case rv.CSRVscause:
		v.Vscause = val
	case rv.CSRVstval:
		v.Vstval = val
	case rv.CSRVsip:
		mask := v.Hideleg & (1 << rv.IntVSSoft)
		v.Hvip = v.Hvip&^mask | val<<1&mask
	case rv.CSRVsatp:
		if mode := val >> 60; mode == 0 || mode == 8 {
			v.Vsatp = val
		}
	default:
		if i, ok := rv.IsPmpaddr(csr); ok {
			v.PMP.SetAddr(i, val)
			m.syncPMPIfNeeded(ctx)
			return true
		}
		if i, ok := rv.IsPmpcfg(csr); ok {
			v.PMP.SetCfgReg(i, val)
			m.syncPMPIfNeeded(ctx)
			return true
		}
		if rv.IsHpmcounter(csr) {
			return true
		}
		if h.Cfg.HasCustomCSR(csr) {
			// Platform-custom CSRs are explicitly allow-listed and written
			// through to the shadow (paper §8.2: the P550's documented
			// speculation/error CSRs).
			v.Custom[csr] = val
			return true
		}
		return false
	}
	if csr == rv.CSRMstatus {
		// MPRV may have toggled; resume() reinstalls the PMP window.
		return true
	}
	return true
}

// syncPMPIfNeeded reinstalls the physical PMP file after a virtual PMP
// write: locked virtual entries constrain vM-mode immediately, so the
// change must be visible before the firmware resumes.
func (m *Monitor) syncPMPIfNeeded(ctx *HartCtx) {
	m.installPMP(ctx, ctx.World())
	ctx.Hart.ChargeCycles(ctx.Hart.Cfg.Cost.TLBFlush)
}

// unmaskMTimer re-enables the machine timer interception after the
// firmware reprogrammed its virtual comparator.
func (m *Monitor) unmaskMTimer(ctx *HartCtx) {
	ctx.Hart.CSR.Mie |= 1 << rv.IntMTimer
}

// sstcEnabled reports whether the virtual Sstc comparator is active.
func (m *Monitor) sstcEnabled(ctx *HartCtx) bool {
	return ctx.Hart.Cfg.HasSstc && ctx.V.Menvcfg>>63 != 0
}

// virtMip composes the virtual mip value: software-writable bits, the
// virtual CLINT lines, and — under Sstc — the stimecmp comparator driving
// a read-only STIP.
func (m *Monitor) virtMip(ctx *HartCtx) uint64 {
	v := ctx.V
	val := v.MipSW | m.vclint.VirtPending(ctx.Hart.ID)
	if m.vplic != nil {
		val |= m.vplic.VirtPending(ctx.Hart.ID)
	}
	if m.sstcEnabled(ctx) {
		val &^= 1 << rv.IntSTimer
		if ctx.Hart.Time() >= v.Stimecmp {
			val |= 1 << rv.IntSTimer
		}
	}
	return val
}

// writeVirtMip applies an M-mode write to the virtual mip: SSIP, STIP,
// and SEIP are writable, except STIP under Sstc.
func (m *Monitor) writeVirtMip(ctx *HartCtx, val uint64) {
	mask := vMipSWMask
	if m.sstcEnabled(ctx) {
		mask &^= 1 << rv.IntSTimer
	}
	ctx.V.MipSW = ctx.V.MipSW&^mask | val&mask
}
