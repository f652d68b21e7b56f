package core

import (
	"fmt"

	"govfm/internal/asm"
	"govfm/internal/rv"
)

// handleTrap is the monitor's top-level trap handler, invoked by the hart
// after architectural M-mode trap entry. It plays the role of Miralis's
// assembly entry point plus the Rust dispatch loop (paper Fig. 4): traps
// from the virtual firmware go to the emulation subsystem, traps from the
// OS either hit the fast path or are re-injected into vM-mode, and
// intercepted M-mode interrupts are routed to their consumer. After every
// trap the monitor checks for pending virtual interrupts and world
// switches before returning.
func (m *Monitor) handleTrap(ctx *HartCtx) {
	h := ctx.Hart
	h.ChargeCycles(h.Cfg.Cost.MonitorEntry)

	// During direct execution the OS changes privilege without monitor
	// involvement (delegated trap entry raises U to S, a native sret
	// lowers S to U), so the virtual mode is resynchronized from the
	// physical trap entry: mstatus.MPP holds the mode the trap came from.
	if ctx.VirtMode != rv.ModeM {
		ctx.VirtMode = rv.MPP(h.CSR.Mstatus)
		if h.Cfg.HasH {
			// mstatus.MPV holds the virtualization mode the trap came from.
			ctx.VirtV = h.CSR.Mstatus>>rv.MstatusMPV&1 != 0
		}
	}

	prevWorld := ctx.World()
	cause := h.CSR.Mcause
	tval := h.CSR.Mtval
	epc := h.CSR.Mepc
	ctx.resumeOverride = nil
	vpc := epc // default resume point: the trapping instruction

	switch {
	case rv.CauseIsInterrupt(cause):
		vpc = m.handleInterrupt(ctx, rv.CauseCode(cause), epc)
	case prevWorld == WorldFirmware:
		ctx.Stats.FirmwareTraps++
		vpc = m.handleFirmwareTrap(ctx, rv.CauseCode(cause), tval, epc)
	default:
		ctx.Stats.OSTraps++
		vpc = m.handleOSTrap(ctx, rv.CauseCode(cause), tval, epc)
	}
	if h.Halted {
		return
	}

	// Check for virtual interrupts after emulation: traps and privileged
	// instructions can mask or unmask them (paper §4.1).
	vpc = m.checkVirtInterrupt(ctx, vpc)

	m.resume(ctx, prevWorld, vpc)
}

// handleFirmwareTrap processes a synchronous trap taken in vM-mode.
func (m *Monitor) handleFirmwareTrap(ctx *HartCtx, code, tval, epc uint64) uint64 {
	switch code {
	case rv.ExcIllegalInstr:
		// The trapping instruction's encoding is latched in mtval.
		raw := uint32(tval)
		if raw == 0 {
			// Some hardware leaves mtval zero; fetch the instruction.
			raw = m.fetchGuestInstr(ctx, epc)
		}
		return m.emulate(ctx, raw, epc)
	case rv.ExcLoadAccessFault, rv.ExcStoreAccessFault:
		// A PMP-trapped access: virtual device window or MPRV emulation.
		if vpc, ok := m.emulateMemTrap(ctx, tval, epc); ok {
			return vpc
		}
		switch m.Policy.OnFirmwareTrap(ctx, code, tval) {
		case ActHandled:
			return ctx.takeOverride(epc)
		case ActBlock:
			m.halt(ctx, fmt.Sprintf("policy blocked firmware %s at %#x",
				rv.CauseString(code), tval))
			return epc
		}
		return m.injectVirtTrap(ctx, code, tval, epc)
	case rv.ExcEcallFromU:
		// An ecall in vM-mode is virtually an ecall-from-M.
		if m.Policy.OnFirmwareEcall(ctx) == ActHandled {
			return ctx.takeOverride(epc + 4)
		}
		return m.injectVirtTrap(ctx, rv.ExcEcallFromM, 0, epc)
	default:
		switch m.Policy.OnFirmwareTrap(ctx, code, tval) {
		case ActHandled:
			return ctx.takeOverride(epc)
		case ActBlock:
			m.halt(ctx, fmt.Sprintf("policy blocked firmware trap %s",
				rv.CauseString(code)))
			return epc
		}
		return m.injectVirtTrap(ctx, code, tval, epc)
	}
}

// handleOSTrap processes a trap from direct execution that reached M-mode:
// an SBI call, a software-emulated operation, or an exception the firmware
// did not delegate.
func (m *Monitor) handleOSTrap(ctx *HartCtx, code, tval, epc uint64) uint64 {
	switch code {
	case rv.ExcEcallFromS, rv.ExcEcallFromU:
		h := ctx.Hart
		m.observeSBI(ctx, h.Reg(asm.A7), h.Reg(asm.A6), h.Reg(asm.A0))
		switch m.Policy.OnOSEcall(ctx) {
		case ActHandled:
			return ctx.takeOverride(epc + 4)
		case ActBlock:
			m.halt(ctx, "policy blocked OS ecall")
			return epc
		}
		if ctx.Degraded {
			// The firmware has been written off: the monitor answers.
			return m.degradedEcall(ctx, epc)
		}
		if m.Opts.Offload && !ctx.VirtV {
			if vpc, ok := m.fastPathEcall(ctx, epc); ok {
				ctx.Stats.FastPathHits++
				return vpc
			}
		}
		// Re-inject into the virtual firmware: a world switch. Capture the
		// call first so containment can answer it if the firmware dies.
		cause := code
		m.capturePendingSBI(ctx, cause, epc)
		return m.injectVirtTrap(ctx, cause, 0, epc)
	case rv.ExcIllegalInstr:
		if m.Opts.Offload {
			if vpc, ok := m.fastPathIllegal(ctx, uint32(tval), epc); ok {
				ctx.Stats.FastPathHits++
				return vpc
			}
		}
		switch m.Policy.OnOSTrap(ctx, code, tval) {
		case ActHandled:
			return ctx.takeOverride(epc)
		case ActBlock:
			m.halt(ctx, "policy blocked OS illegal instruction")
			return epc
		}
		return m.rejectToFirmware(ctx, code, tval, epc)
	case rv.ExcLoadAddrMisaligned, rv.ExcStoreAddrMisaligned:
		if m.Opts.Offload {
			if vpc, ok := m.fastPathMisaligned(ctx, code, tval, epc); ok {
				ctx.Stats.FastPathHits++
				return vpc
			}
		}
		switch m.Policy.OnOSTrap(ctx, code, tval) {
		case ActHandled:
			return ctx.takeOverride(epc)
		case ActBlock:
			m.halt(ctx, "policy blocked OS misaligned access")
			return epc
		}
		return m.rejectToFirmware(ctx, code, tval, epc)
	default:
		switch m.Policy.OnOSTrap(ctx, code, tval) {
		case ActHandled:
			return ctx.takeOverride(epc)
		case ActBlock:
			m.halt(ctx, fmt.Sprintf("policy blocked OS trap %s", rv.CauseString(code)))
			return epc
		}
		return m.rejectToFirmware(ctx, code, tval, epc)
	}
}

// handleInterrupt routes an intercepted physical M-mode interrupt.
func (m *Monitor) handleInterrupt(ctx *HartCtx, code, epc uint64) uint64 {
	h := ctx.Hart
	if m.Policy.OnInterrupt(ctx, code) == ActHandled {
		return ctx.takeOverride(epc)
	}
	switch code {
	case rv.IntMTimer:
		// The physical comparator fired: deliver to whichever consumer is
		// due — the OS deadline armed by the fast path becomes STIP, the
		// firmware's own virtual deadline becomes a virtual M-timer
		// interrupt (checked by checkVirtInterrupt via VirtPending).
		if m.vclint.OSDeadlineDue(h.ID) {
			m.vclint.ClearOSDeadline(h.ID)
			h.CSR.SetMip(h.CSR.Mip(h.Time()) | 1<<rv.IntSTimer)
		} else {
			// Nothing for the OS: silence the physical comparator so the
			// interrupt does not spin; the virtual deadline stays visible
			// through VirtPending.
			m.vclint.reprogram(h.ID)
			if m.vclint.VirtPending(h.ID)&(1<<rv.IntMTimer) != 0 {
				// Stop the storm while the firmware decides: mask MTIE
				// until the firmware reprograms its comparator.
				h.CSR.Mie &^= 1 << rv.IntMTimer
			}
		}
	case rv.IntMSoft:
		reasons, virtIPI := m.vclint.TakeIPIReasons(h.ID)
		if reasons&IPIReasonOS != 0 {
			// OS-to-OS IPI: surfaces as a supervisor software interrupt.
			h.CSR.SetMip(h.CSR.Mip(h.Time()) | 1<<rv.IntSSoft)
		}
		if reasons&IPIReasonRfence != 0 {
			// Remote fence: perform the flush on this hart.
			h.ChargeCycles(h.Cfg.Cost.TLBFlush)
		}
		_ = virtIPI // firmware vMSIP handled by checkVirtInterrupt
	case rv.IntMExt:
		// External M interrupts are re-injected virtually (rare: vendor
		// firmware delegates external interrupts to the OS). Mask the
		// physical line until the firmware claims or re-routes, so an
		// undeliverable virtual interrupt cannot storm the monitor.
		h.CSR.Mie &^= 1 << rv.IntMExt
	}
	// A policy may have rescheduled execution (e.g. an enclave preempted
	// by the timer) while still wanting the default interrupt handling.
	return ctx.takeOverride(epc)
}

// checkVirtInterrupt injects a pending, enabled virtual interrupt into
// vM-mode (paper §4.1: "a virtual interrupt must be injected if it is both
// pending and enabled", checked after each trap). Returns the updated
// resume PC.
func (m *Monitor) checkVirtInterrupt(ctx *HartCtx, vpc uint64) uint64 {
	v := ctx.V
	if ctx.Degraded {
		// No firmware left to deliver to.
		return vpc
	}
	pending := m.virtMip(ctx) & v.Mie & rv.MIntMask
	if pending == 0 {
		return vpc
	}
	// A pending-and-enabled interrupt wakes a virtual wfi even when it is
	// not deliverable (the architectural wfi wake rule).
	ctx.VirtWaiting = false
	// Deliverability to vM-mode: below vM always, in vM only with vMIE.
	if ctx.VirtMode == rv.ModeM && !v.MIE() {
		return vpc
	}
	var code uint64
	for _, c := range []uint64{rv.IntMExt, rv.IntMSoft, rv.IntMTimer} {
		if pending&(1<<c) != 0 {
			code = c
			break
		}
	}
	ctx.Stats.VirtInterrupts++
	ctx.VirtWaiting = false
	return m.injectVirtTrap(ctx, rv.Cause(code, true), 0, vpc)
}

// injectVirtTrap performs virtual trap entry and returns the new virtual
// PC (the trap vector). epc is the virtual PC at the trap point. Like the
// hardware it models, the entry honours the virtual medeleg: exceptions
// raised below vM that the firmware delegated enter virtual S-mode. (In
// production that path is exercised only transitively — delegated
// exceptions are handled natively because the physical medeleg mirrors the
// virtual one — but the emulator is total so faithful emulation holds for
// every state.)
func (m *Monitor) injectVirtTrap(ctx *HartCtx, cause, tval, epc uint64) uint64 {
	return m.injectVirtTrapG(ctx, cause, tval, 0, epc)
}

// injectVirtTrapG is injectVirtTrap with an explicit guest-physical trap
// value (already shifted right by 2, as the htval/mtval2 registers hold
// it); guest-page faults raised on the firmware's behalf carry one.
func (m *Monitor) injectVirtTrapG(ctx *HartCtx, cause, tval, tval2, epc uint64) uint64 {
	if m.Opts.OnVirtTrap != nil {
		m.Opts.OnVirtTrap(ctx, cause, tval)
	}
	v := ctx.V
	if !rv.CauseIsInterrupt(cause) && ctx.VirtMode != rv.ModeM &&
		v.Medeleg>>rv.CauseCode(cause)&1 != 0 {
		if ctx.VirtV && v.Hedeleg>>rv.CauseCode(cause)&1 != 0 {
			// Delegated twice: the virtual guest handles its own trap.
			return m.injectVirtVSTrap(ctx, cause, tval, epc)
		}
		// Virtual supervisor trap entry.
		return m.injectVirtSTrap(ctx, cause, tval, tval2, epc)
	}
	// Double-fault detection (containment only): an exception raised while
	// the firmware is already handling a virtual M trap, or with no trap
	// vector programmed, means the firmware cannot recover on its own —
	// on hardware it would vector into its own fault path forever.
	if m.Opts.Containment && !rv.CauseIsInterrupt(cause) && ctx.VirtMode == rv.ModeM &&
		(ctx.vTrapDepth >= 1 || v.Mtvec&^3 == 0) {
		f := m.newFault(ctx, FaultDoubleFault, fmt.Sprintf(
			"virtual %s at depth %d (mtvec=%#x)",
			rv.CauseString(rv.CauseCode(cause)), ctx.vTrapDepth, v.Mtvec))
		return m.misbehave(ctx, f, epc)
	}
	if ctx.VirtMode == rv.ModeM {
		ctx.vTrapDepth++
	} else {
		ctx.vTrapDepth = 1
	}
	v.Mcause = cause
	v.Mepc = vLegalizeEpc(epc)
	v.Mtval = tval
	// Stack the virtual interrupt enables, as hardware trap entry does.
	if v.MIE() {
		v.Mstatus |= 1 << 7 // MPIE
	} else {
		v.Mstatus &^= 1 << 7
	}
	v.Mstatus &^= 1 << 3 // MIE = 0
	v.SetMPP(ctx.VirtMode)
	if ctx.Hart.Cfg.HasH {
		v.Mstatus &^= 1<<rv.MstatusMPV | 1<<rv.MstatusGVA
		if ctx.VirtV {
			v.Mstatus |= 1 << rv.MstatusMPV
			if !rv.CauseIsInterrupt(cause) &&
				rv.CauseWritesGVA(rv.CauseCode(cause)) {
				v.Mstatus |= 1 << rv.MstatusGVA
			}
		}
		v.Mtval2 = tval2
		v.Mtinst = 0
		ctx.VirtV = false
	}
	ctx.VirtMode = rv.ModeM
	ctx.VirtWaiting = false
	base := v.Mtvec &^ 3
	if v.Mtvec&3 == 1 && rv.CauseIsInterrupt(cause) {
		return base + 4*rv.CauseCode(cause)
	}
	return base
}

// injectVirtVSTrap performs virtual VS-mode trap entry: an exception the
// virtual firmware delegated by both its medeleg and its hedeleg while the
// guest of the virtualized hypervisor (VirtV) was running. The raw
// vsstatus shadow stacks SIE/SPP and the guest stays in V.
func (m *Monitor) injectVirtVSTrap(ctx *HartCtx, cause, tval, epc uint64) uint64 {
	v := ctx.V
	v.Vscause = cause // exceptions only; no VS interrupt code transform
	v.Vsepc = vLegalizeEpc(epc)
	v.Vstval = tval
	vs := v.Vsstatus
	vs = vs&^(1<<5) | vs>>1&1<<5 // SPIE <- SIE
	vs &^= 1 << 1                // SIE = 0
	vs &^= 1 << 8                // SPP <- from
	if ctx.VirtMode == rv.ModeS {
		vs |= 1 << 8
	}
	v.Vsstatus = vs
	ctx.VirtMode = rv.ModeS
	ctx.VirtWaiting = false
	return v.Vstvec &^ 3 // synchronous: always the base
}

// fetchGuestInstr reads the instruction word at a guest PC. In firmware
// world addressing is bare, so the virtual PC is a physical address.
func (m *Monitor) fetchGuestInstr(ctx *HartCtx, pc uint64) uint32 {
	h := ctx.Hart
	h.ChargeCycles(2 * h.Cfg.Cost.MemAccess)
	v, ok := h.Bus.Load(pc, 4)
	if !ok {
		return 0
	}
	return uint32(v)
}
