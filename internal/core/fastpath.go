package core

import (
	"govfm/internal/asm"
	"govfm/internal/mem"
	"govfm/internal/rv"
)

// Fast-path offloading (paper §3.4): the five trap causes that account for
// 99.98% of OS-to-firmware traps on the evaluation platforms — time CSR
// reads, timer deadlines, misaligned loads and stores, IPIs, and remote
// fences — are software emulation of unimplemented standard hardware
// features, so the monitor handles them directly (10–100 lines each)
// instead of world-switching into the virtualized firmware. The whole file
// corresponds to the 190-line "fast path offload" row of Table 1.

// offloads reports whether the given operation class is enabled.
func (m *Monitor) offloads(op OffloadOp) bool {
	if m.forceOffload {
		// Degraded mode: the fast paths are the SBI implementation.
		return true
	}
	if !m.Opts.Offload {
		return false
	}
	mask := m.Opts.OffloadMask
	if mask == 0 {
		mask = OffloadAll
	}
	return mask&op != 0
}

// sbiRet writes the standard SBI return registers.
func sbiRet(ctx *HartCtx, err int64, value uint64) {
	ctx.Hart.SetReg(asm.A0, uint64(err))
	ctx.Hart.SetReg(asm.A1, value)
}

// fastPathEcall handles an SBI call from the OS when the extension is one
// of the offloaded ones. Returns (nextPC, true) when absorbed.
func (m *Monitor) fastPathEcall(ctx *HartCtx, epc uint64) (uint64, bool) {
	h := ctx.Hart
	ext := h.Reg(asm.A7)
	fn := h.Reg(asm.A6)
	switch ext {
	case rv.SBIExtTimer:
		if fn != rv.SBITimerSetTimer || !m.offloads(OffloadTimer) {
			return 0, false
		}
		m.fpSetTimer(ctx, h.Reg(asm.A0))
		sbiRet(ctx, rv.SBISuccess, 0)
		return epc + 4, true
	case rv.SBILegacySetTimer:
		if !m.offloads(OffloadTimer) {
			return 0, false
		}
		m.fpSetTimer(ctx, h.Reg(asm.A0))
		h.SetReg(asm.A0, 0)
		return epc + 4, true
	case rv.SBIExtIPI:
		if fn != rv.SBIIPISendIPI || !m.offloads(OffloadIPI) {
			return 0, false
		}
		m.fpSendIPI(ctx, h.Reg(asm.A0), h.Reg(asm.A1), IPIReasonOS)
		sbiRet(ctx, rv.SBISuccess, 0)
		return epc + 4, true
	case rv.SBILegacySendIPI:
		if !m.offloads(OffloadIPI) {
			return 0, false
		}
		// Legacy: a0 points at a hart mask in memory; treat the value as
		// the mask directly (the synthetic kernels use the new interface).
		m.fpSendIPI(ctx, h.Reg(asm.A0), 0, IPIReasonOS)
		h.SetReg(asm.A0, 0)
		return epc + 4, true
	case rv.SBIExtRfence:
		if !m.offloads(OffloadRfence) {
			return 0, false
		}
		switch fn {
		case rv.SBIRfenceFenceI, rv.SBIRfenceSfenceVMA, rv.SBIRfenceSfenceVMAAsid:
			m.fpSendIPI(ctx, h.Reg(asm.A0), h.Reg(asm.A1), IPIReasonRfence)
			// The local hart fences too.
			h.ChargeCycles(h.Cfg.Cost.TLBFlush)
			sbiRet(ctx, rv.SBISuccess, 0)
			return epc + 4, true
		}
		return 0, false
	case rv.SBILegacyRemoteFenceI, rv.SBILegacySfenceVMA:
		if !m.offloads(OffloadRfence) {
			return 0, false
		}
		m.fpSendIPI(ctx, ^uint64(0), 0, IPIReasonRfence)
		h.ChargeCycles(h.Cfg.Cost.TLBFlush)
		h.SetReg(asm.A0, 0)
		return epc + 4, true
	}
	return 0, false
}

// fpSetTimer programs the OS timer deadline: arm the virtual CLINT's OS
// slot and clear the pending supervisor timer interrupt, exactly what the
// OpenSBI handler does.
func (m *Monitor) fpSetTimer(ctx *HartCtx, deadline uint64) {
	h := ctx.Hart
	m.vclint.SetOSDeadline(h.ID, deadline)
	h.CSR.SetMip(h.CSR.Mip(h.Time()) &^ (1 << rv.IntSTimer))
	m.unmaskMTimer(ctx)
}

// fpSendIPI raises the machine software interrupt on every hart in the
// mask; each target's monitor converts it to a supervisor software
// interrupt (or a fence) on its own hart.
func (m *Monitor) fpSendIPI(ctx *HartCtx, mask, base uint64, reason uint32) {
	n := len(m.Ctx)
	for i := 0; i < 64; i++ {
		if mask>>i&1 == 0 {
			continue
		}
		target := int(base) + i
		if target < 0 || target >= n {
			continue
		}
		if target == ctx.Hart.ID && reason == IPIReasonRfence {
			continue // local fence handled by the caller
		}
		m.vclint.RaiseIPI(target, reason)
	}
}

// fastPathIllegal absorbs illegal-instruction traps from the OS caused by
// reads of the unimplemented time CSR — the single hottest trap cause on
// the VisionFive 2 (Fig. 3).
func (m *Monitor) fastPathIllegal(ctx *HartCtx, raw uint32, epc uint64) (uint64, bool) {
	h := ctx.Hart
	if !m.offloads(OffloadTimeRead) {
		return 0, false
	}
	if ctx.VirtV {
		// Guest (VS/VU) traps follow the architectural H routing through
		// re-injection; the fast path only answers for the host supervisor.
		return 0, false
	}
	if raw == 0 {
		raw = m.fetchGuestInstr(ctx, epc)
	}
	ins := decode(raw)
	switch ins.Op {
	case EmuCSRRS, EmuCSRRSI, EmuCSRRW, EmuCSRRC, EmuCSRRWI, EmuCSRRCI:
	default:
		return 0, false
	}
	if ins.CSR != rv.CSRTime {
		return 0, false
	}
	// Pure reads only (csrr rd, time); writes to time are not a thing the
	// fast path legitimizes.
	if !(ins.Op == EmuCSRRS || ins.Op == EmuCSRRSI) || ins.Rs1 != 0 {
		return 0, false
	}
	h.SetReg(ins.Rd, h.Time())
	return epc + 4, true
}

// fastPathMisaligned emulates a misaligned load or store from the OS
// byte by byte, as the vendor firmware's misaligned handler would.
func (m *Monitor) fastPathMisaligned(ctx *HartCtx, code, addr, epc uint64) (uint64, bool) {
	h := ctx.Hart
	if m.Opts.Offload && !m.forceOffload && !m.offloads(OffloadMisaligned) {
		return 0, false
	}
	if ctx.VirtV {
		// MPRV byte accesses below would use single-stage translation; a
		// guest's misaligned access takes the architectural re-injection
		// path instead.
		return 0, false
	}
	raw := m.fetchOSInstr(ctx, epc)
	if raw == 0 {
		return 0, false
	}
	ins := decode(raw)
	// Perform the byte accesses with MPRV semantics, exactly as the vendor
	// firmware's handler does: the effective privilege and translation are
	// the trapping context's (mstatus.MPP still holds it).
	saved := h.CSR.Mstatus
	h.CSR.Mstatus |= 1 << rv.MstatusMPRV
	defer func() { h.CSR.Mstatus = saved }()
	switch {
	case ins.Op == EmuLoad && code == rv.ExcLoadAddrMisaligned:
		var val uint64
		for b := 0; b < ins.Size; b++ {
			byteVal, ei := h.MemAccess(addr+uint64(b), 1, mem.Read, 0, false)
			if ei != nil {
				return m.injectVirtTrap(ctx, ei.Cause, ei.Tval, epc), true
			}
			val |= byteVal << (8 * b)
		}
		if ins.Signed {
			val = rv.SignExtend(val, uint(8*ins.Size))
		}
		h.SetReg(ins.Rd, val)
		return epc + 4, true
	case ins.Op == EmuStore && code == rv.ExcStoreAddrMisaligned:
		val := h.Reg(ins.Rs2)
		for b := 0; b < ins.Size; b++ {
			if _, ei := h.MemAccess(addr+uint64(b), 1, mem.Write, val>>(8*b)&0xFF, false); ei != nil {
				return m.injectVirtTrap(ctx, ei.Cause, ei.Tval, epc), true
			}
		}
		return epc + 4, true
	}
	return 0, false
}

// fetchOSInstr reads the trapping instruction from OS context, translating
// through the OS's live page tables when paging is on. The monitor uses
// MPRV-style access through the hart.
func (m *Monitor) fetchOSInstr(ctx *HartCtx, pc uint64) uint32 {
	h := ctx.Hart
	h.ChargeCycles(2 * h.Cfg.Cost.MemAccess)
	// Translate with the OS's privilege (the mode stacked in MPP).
	pa, ei := h.TranslateV(pc, mem.Exec, rv.MPP(h.CSR.Mstatus), false)
	if ei != nil {
		return 0
	}
	v, ok := h.Bus.Load(pa, 4)
	if !ok {
		return 0
	}
	return uint32(v)
}
