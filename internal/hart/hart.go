// Package hart implements the RV64IMA_Zicsr machine simulator at the heart
// of this reproduction: privilege modes M/S/U, the full trap and interrupt
// architecture with delegation, PMP enforcement on every access, Sv39
// translation, and per-platform cycle accounting.
//
// The monitor hook is the load-bearing piece for the paper: when a Monitor
// is installed, every trap that architecturally enters M-mode transfers
// control to Go code instead of simulated code at mtvec — exactly the
// position Miralis occupies on real hardware. With no monitor installed the
// machine behaves natively (firmware handles its own M-mode traps), which
// is the paper's "Native" baseline.
package hart

import (
	"errors"
	"fmt"

	"govfm/internal/mem"
	"govfm/internal/mmu"
	"govfm/internal/obs"
	"govfm/internal/rv"
)

// ErrLockup is the halt reason for a hart sleeping in WFI with every
// interrupt source masked (mie == 0): no event can ever wake it, so
// continuing to simulate only burns the step budget. The condition is
// checked on the idle poll, not at WFI retirement, so a wfi immediately
// followed by an interrupt-enable update (checked by a re-entered monitor,
// for example) is not misflagged.
var ErrLockup = errors.New("wfi with all interrupts masked: no wakeup possible")

// Monitor is M-mode software implemented in Go. HandleMTrap is invoked
// after the architectural M-mode trap entry has completed (mepc/mcause/
// mtval latched, MPP/MPIE stacked, mode = M); the handler plays the role of
// the code at mtvec and must leave the hart in a runnable state, typically
// by emulating the trap and executing an mret via ReturnMRET.
type Monitor interface {
	HandleMTrap(h *Hart)
}

// TrapInfo describes a trap for tracing.
type TrapInfo struct {
	Hart     int
	Cause    uint64
	Tval     uint64
	EPC      uint64
	FromMode rv.Mode
	ToMode   rv.Mode
	Cycle    uint64
}

// Hart is one simulated core.
type Hart struct {
	ID  int
	Cfg *Config
	Bus *mem.Bus
	CSR CSRFile

	Regs [32]uint64
	PC   uint64
	Mode rv.Mode
	// V is the virtualization mode (hypervisor extension): with V set the
	// hart executes as a guest — VS-mode when Mode is S, VU-mode when U —
	// under two-stage address translation. Always false when !Cfg.HasH.
	V bool

	Cycles  uint64
	Instret uint64
	// SInstret counts instructions retired in S-mode. It is the OS
	// forward-progress signal the chaos harness asserts on: injected
	// firmware faults must not stop it from increasing.
	SInstret uint64

	// Waiting is set while the hart sleeps in WFI.
	Waiting bool
	// Stopped parks the hart entirely (HSM stopped state / not released).
	Stopped bool
	// Halted latches a permanent stop (test exit device, monitor panic).
	Halted bool
	// HaltReason records why the hart halted.
	HaltReason string

	// Monitor, when non-nil, receives all M-mode traps.
	Monitor Monitor
	// Watchdog, when non-nil, runs after every machine step of this hart;
	// the monitor uses it to charge the firmware's cycle budget outside
	// the trap path (a runaway firmware takes no traps to observe).
	Watchdog func(h *Hart)
	// TimeFn supplies mtime for the time CSR and the Sstc comparator.
	TimeFn func() uint64

	// OnTrap, when non-nil, is called for every trap taken (tracing).
	OnTrap func(TrapInfo)

	// Perf accumulates always-on observability counters (fast-path hit
	// rates, trap frequencies). Counting never feeds back into simulated
	// state: cycles are bit-identical whether or not anyone reads them.
	Perf PerfCounters
	// Trace, when non-nil, receives trap instants and monitor-handling
	// spans on this hart's track of the simulated timeline.
	Trace *obs.Tracer

	// LR/SC reservation.
	resValid bool
	resAddr  uint64

	// envCache is reused across memory accesses to keep the hot path
	// allocation-free.
	envCache mmu.Env

	// fast holds the host-side acceleration caches (predecoded
	// instructions, software TLB); excs is the allocation-free exception
	// scratch ring. See hostfast.go.
	fast fastState
	excs excScratch
	// sb holds the superblock binary-translation tier's dispatch state.
	// See superblock.go.
	sb sbState

	// mem is this hart's private port onto the bus: a pass-through in
	// sequential mode, a write-buffering frozen-RAM view during parallel
	// slices. All of the hart's own accesses go through it; Bus stays the
	// shared bus for external agents (monitor, harnesses), which only run
	// while the harts are quiesced.
	mem *mem.Port
	// peers lists the machine's other harts, for cross-hart LR/SC
	// reservation kills on stores (wired by NewMachine).
	peers []*Hart

	// inSlice is set while the hart executes inside a parallel quantum
	// slice; park records why the slice ended early. See sched.go.
	inSlice bool
	park    parkKind
}

// New creates a hart with reset state: M-mode, all CSRs at reset values.
func New(id int, cfg *Config, bus *mem.Bus) *Hart {
	h := &Hart{
		ID:   id,
		Cfg:  cfg,
		Bus:  bus,
		Mode: rv.ModeM,
		CSR:  newCSRFile(cfg),
	}
	h.TimeFn = func() uint64 { return 0 }
	h.fast.pages = make(map[uint64]*decPage)
	h.fast.ptePages = make(map[uint64]struct{})
	if bus != nil {
		h.mem = mem.NewPort(bus)
		bus.AddPageWatcher(h)
		h.SetFastPath(true)
		h.sb.on = true
	}
	return h
}

// Reg reads GPR i (x0 always reads zero).
func (h *Hart) Reg(i uint32) uint64 {
	if i == 0 {
		return 0
	}
	return h.Regs[i]
}

// SetReg writes GPR i (writes to x0 are discarded).
func (h *Hart) SetReg(i uint32, v uint64) {
	if i != 0 {
		h.Regs[i] = v
	}
}

func (h *Hart) charge(cycles uint64) { h.Cycles += cycles }

// ChargeCycles adds monitor-side work to the hart's cycle counter. The
// Miralis cost model charges its emulation work through this.
func (h *Hart) ChargeCycles(cycles uint64) { h.charge(cycles) }

// Time returns the current mtime.
func (h *Hart) Time() uint64 { return h.TimeFn() }

// Halt permanently stops the hart.
func (h *Hart) Halt(reason string) {
	h.Halted = true
	h.HaltReason = reason
}

// Exc carries a pending synchronous exception out of the execute path.
// Values returned as *Exc come from a small per-hart scratch ring (see
// hostfast.go) and must be consumed promptly, which all callers do.
type Exc struct {
	Cause uint64
	Tval  uint64
	// Gpa is the faulting guest-physical address for the guest-page-fault
	// causes; trap entry latches Gpa>>2 into htval/mtval2.
	Gpa uint64
}

// Exception takes a synchronous exception at the current PC.
func (h *Hart) Exception(cause, tval uint64) {
	h.trap(rv.Cause(cause, false), tval, 0, h.PC)
}

// raise takes the synchronous exception described by ei at the current PC,
// carrying its guest-physical address into trap entry.
func (h *Hart) raise(ei *Exc) {
	h.trap(rv.Cause(ei.Cause, false), ei.Tval, ei.Gpa, h.PC)
}

// trap performs architectural trap entry for the given cause, routing to
// VS-mode when doubly delegated (medeleg/mideleg then hedeleg/hideleg,
// from V=1 only), to HS-mode when delegated once, otherwise to M-mode.
// gpa is the guest-physical address for guest-page faults (zero otherwise);
// entry to HS/M latches gpa>>2 into htval/mtval2.
func (h *Hart) trap(cause, tval, gpa, epc uint64) {
	code := rv.CauseCode(cause)
	interrupt := rv.CauseIsInterrupt(cause)
	toS, toVS := false, false
	if h.Mode != rv.ModeM {
		if interrupt {
			toS = h.CSR.Mideleg&(1<<code) != 0
		} else {
			toS = h.CSR.Medeleg&(1<<code) != 0
		}
		if toS && h.V {
			if interrupt {
				toVS = h.CSR.Hideleg&(1<<code) != 0
			} else {
				toVS = h.CSR.Hedeleg&(1<<code) != 0
			}
		}
	}
	h.charge(h.Cfg.Cost.TrapEntry)
	from := h.Mode
	fromV := h.V
	if toVS {
		// VS-mode entry: the guest sees the S-level view, so delegated VS
		// interrupts write the S-level code (VS code - 1) into vscause.
		vcause := cause
		if interrupt {
			vcause = rv.Cause(code-1, true)
		}
		h.CSR.Vscause = vcause
		h.CSR.Vsepc = legalizeEpc(epc)
		h.CSR.Vstval = tval
		st := h.CSR.Vsstatus
		st = rv.SetBit(st, rv.MstatusSPIE, rv.Bit(st, rv.MstatusSIE) != 0)
		st = rv.SetBit(st, rv.MstatusSIE, false)
		st = rv.SetBit(st, rv.MstatusSPP, from == rv.ModeS)
		h.CSR.Vsstatus = st
		h.Mode = rv.ModeS
		h.PC = vectorPC(h.CSR.Vstvec, vcause)
		h.notifyTrap(cause, tval, epc, from, rv.ModeS)
		return
	}
	if toS {
		h.CSR.Scause = cause
		h.CSR.Sepc = legalizeEpc(epc)
		h.CSR.Stval = tval
		st := h.CSR.Mstatus
		st = rv.SetBit(st, rv.MstatusSPIE, rv.Bit(st, rv.MstatusSIE) != 0)
		st = rv.SetBit(st, rv.MstatusSIE, false)
		st = rv.SetBit(st, rv.MstatusSPP, from == rv.ModeS)
		h.CSR.Mstatus = st
		if h.Cfg.HasH {
			hs := h.CSR.Hstatus
			hs = rv.SetBit(hs, rv.HstatusSPV, fromV)
			if fromV {
				hs = rv.SetBit(hs, rv.HstatusSPVP, from == rv.ModeS)
			}
			hs = rv.SetBit(hs, rv.HstatusGVA,
				fromV && !interrupt && rv.CauseWritesGVA(code))
			h.CSR.Hstatus = hs
			h.CSR.Htval = gpa >> 2
			h.CSR.Htinst = 0
			h.V = false
		}
		h.Mode = rv.ModeS
		h.PC = vectorPC(h.CSR.Stvec, cause)
		h.notifyTrap(cause, tval, epc, from, rv.ModeS)
		return
	}
	h.CSR.Mcause = cause
	h.CSR.Mepc = legalizeEpc(epc)
	h.CSR.Mtval = tval
	st := h.CSR.Mstatus
	st = rv.SetBit(st, rv.MstatusMPIE, rv.Bit(st, rv.MstatusMIE) != 0)
	st = rv.SetBit(st, rv.MstatusMIE, false)
	st = rv.WithMPP(st, from)
	if h.Cfg.HasH {
		st = rv.SetBit(st, rv.MstatusMPV, fromV)
		st = rv.SetBit(st, rv.MstatusGVA,
			fromV && !interrupt && rv.CauseWritesGVA(code))
		h.CSR.Mtval2 = gpa >> 2
		h.CSR.Mtinst = 0
		h.V = false
	}
	h.CSR.Mstatus = st
	h.Mode = rv.ModeM
	h.PC = vectorPC(h.CSR.Mtvec, cause)
	h.notifyTrap(cause, tval, epc, from, rv.ModeM)
	if h.Monitor != nil {
		if h.inSlice {
			// Parallel slice: architectural M-trap entry is complete, but
			// the monitor is shared host-side state — defer HandleMTrap to
			// the quantum barrier, where harts run in deterministic order.
			h.park = parkMonitor
			return
		}
		// The "m-trap" span brackets the monitor's handling of this trap:
		// it closes when HandleMTrap returns, which encloses the mret
		// (ReturnMRET runs inside the handler), so the span reads as
		// trap-to-mret on the simulated timeline however the monitor exits
		// (emulate+mret, world switch, firmware restart).
		h.Trace.Begin(int32(h.ID), h.Cycles, "m-trap")
		h.Monitor.HandleMTrap(h)
		h.Trace.End(int32(h.ID), h.Cycles)
	}
}

func (h *Hart) notifyTrap(cause, tval, epc uint64, from, to rv.Mode) {
	h.Perf.Traps++
	h.Perf.TrapsByCause[trapCauseIndex(cause)]++
	if h.Trace != nil {
		h.Trace.Emit(obs.Event{
			Kind: obs.KInstant, Track: int32(h.ID), TS: h.Cycles,
			Name: trapNames[trapCauseIndex(cause)],
			Args: [4]uint64{cause, tval, h.Reg(17), uint64(from)<<8 | uint64(to)},
		})
	}
	if h.OnTrap != nil {
		h.OnTrap(TrapInfo{
			Hart: h.ID, Cause: cause, Tval: tval, EPC: epc,
			FromMode: from, ToMode: to, Cycle: h.Cycles,
		})
	}
}

func vectorPC(tvec, cause uint64) uint64 {
	base := tvec &^ 3
	if tvec&3 == 1 && rv.CauseIsInterrupt(cause) {
		return base + 4*rv.CauseCode(cause)
	}
	return base
}

// ReturnMRET performs the mret state transition: restores the privilege
// stack and jumps to mepc. Exposed for the monitor, which executes its
// "mret" in Go.
func (h *Hart) ReturnMRET() {
	st := h.CSR.Mstatus
	prev := rv.MPP(st)
	st = rv.SetBit(st, rv.MstatusMIE, rv.Bit(st, rv.MstatusMPIE) != 0)
	st = rv.SetBit(st, rv.MstatusMPIE, true)
	st = rv.WithMPP(st, rv.ModeU)
	if prev != rv.ModeM {
		st = rv.SetBit(st, rv.MstatusMPRV, false)
	}
	if h.Cfg.HasH {
		h.V = prev != rv.ModeM && rv.Bit(st, rv.MstatusMPV) != 0
		st = rv.SetBit(st, rv.MstatusMPV, false)
	}
	h.CSR.Mstatus = st
	h.Mode = prev
	h.PC = h.CSR.Mepc
	h.charge(h.Cfg.Cost.XRet)
}

// returnSRET performs the sret state transition. From VS-mode it operates
// on the vsstatus stack and stays in the guest; from HS-mode it restores
// the virtualization mode from hstatus.SPV.
func (h *Hart) returnSRET() {
	if h.V {
		st := h.CSR.Vsstatus
		prev := rv.SPP(st)
		st = rv.SetBit(st, rv.MstatusSIE, rv.Bit(st, rv.MstatusSPIE) != 0)
		st = rv.SetBit(st, rv.MstatusSPIE, true)
		st = rv.SetBit(st, rv.MstatusSPP, false)
		h.CSR.Vsstatus = st
		h.Mode = prev
		h.PC = h.CSR.Vsepc
		h.charge(h.Cfg.Cost.XRet)
		return
	}
	st := h.CSR.Mstatus
	prev := rv.SPP(st)
	st = rv.SetBit(st, rv.MstatusSIE, rv.Bit(st, rv.MstatusSPIE) != 0)
	st = rv.SetBit(st, rv.MstatusSPIE, true)
	st = rv.SetBit(st, rv.MstatusSPP, false)
	if prev != rv.ModeM {
		st = rv.SetBit(st, rv.MstatusMPRV, false)
	}
	h.CSR.Mstatus = st
	if h.Cfg.HasH {
		h.V = rv.Bit(h.CSR.Hstatus, rv.HstatusSPV) != 0
		h.CSR.Hstatus = rv.SetBit(h.CSR.Hstatus, rv.HstatusSPV, false)
	}
	h.Mode = prev
	h.PC = h.CSR.Sepc
	h.charge(h.Cfg.Cost.XRet)
}

// pendingInterrupt returns the cause of the highest-priority deliverable
// interrupt, or 0,false. Priority order per the spec: MEI, MSI, MTI, SEI,
// SSI, STI, then the VS interrupts. VS-level pending state lives in
// hvip&hie; mideleg routes each code to M or (H)S, and hideleg splits the
// supervisor tier into HS targets and in-guest VS delivery.
func (h *Hart) pendingInterrupt() (uint64, bool) {
	pending := h.CSR.Mip(h.Time()) & h.CSR.Mie
	if h.Cfg.HasH {
		pending |= h.CSR.Hvip & h.CSR.Hie
	}
	if pending == 0 {
		return 0, false
	}
	mEnabled := h.Mode != rv.ModeM || rv.Bit(h.CSR.Mstatus, rv.MstatusMIE) != 0
	mPending := pending &^ h.CSR.Mideleg
	if mEnabled && mPending != 0 {
		for _, code := range mIntPriority {
			if mPending&(1<<code) != 0 {
				return rv.Cause(code, true), true
			}
		}
	}
	// (H)S-level targets: delegated by mideleg, minus the VS codes hideleg
	// sends on into the guest. From V=1 they always preempt the guest.
	sPending := pending & h.CSR.Mideleg &^ (h.CSR.Hideleg & rv.VSIntMask)
	sEnabled := h.V || h.Mode == rv.ModeU ||
		(h.Mode == rv.ModeS && rv.Bit(h.CSR.Mstatus, rv.MstatusSIE) != 0)
	if h.Mode != rv.ModeM && sEnabled && sPending != 0 {
		for _, code := range sIntPriority {
			if sPending&(1<<code) != 0 {
				return rv.Cause(code, true), true
			}
		}
	}
	// VS-level targets deliver only inside the guest.
	if h.V {
		vsPending := pending & h.CSR.Mideleg & h.CSR.Hideleg & rv.VSIntMask
		vsEnabled := h.Mode == rv.ModeU ||
			rv.Bit(h.CSR.Vsstatus, rv.MstatusSIE) != 0
		if vsEnabled && vsPending != 0 {
			for _, code := range vsIntPriority {
				if vsPending&(1<<code) != 0 {
					return rv.Cause(code, true), true
				}
			}
		}
	}
	return 0, false
}

// Interrupt priority orders, hoisted so pendingInterrupt allocates nothing.
var (
	mIntPriority = [...]uint64{rv.IntMExt, rv.IntMSoft, rv.IntMTimer,
		rv.IntSExt, rv.IntSSoft, rv.IntSTimer,
		rv.IntVSExt, rv.IntVSSoft, rv.IntVSTimer}
	sIntPriority = [...]uint64{rv.IntSExt, rv.IntSSoft, rv.IntSTimer,
		rv.IntVSExt, rv.IntVSSoft, rv.IntVSTimer}
	vsIntPriority = [...]uint64{rv.IntVSExt, rv.IntVSSoft, rv.IntVSTimer}
)

// Step advances the hart by one instruction (or one interrupt/idle poll).
// The caller (Machine) refreshes hardware interrupt lines beforehand.
// When the scheduler armed the superblock tier (h.sb.armed), one Step call
// may retire a whole translated block; h.sb.retired reports how many
// sequential steps the call was equivalent to (1 otherwise, no-op steps of
// halted or stopped harts included).
func (h *Hart) Step() {
	h.sb.retired = 1
	if h.Stopped || h.Halted {
		return
	}
	if cause, ok := h.pendingInterrupt(); ok {
		h.Waiting = false
		h.trap(cause, 0, 0, h.PC)
		return
	}
	if h.Waiting {
		// WFI wakes when any enabled interrupt pends, regardless of global
		// enables; that case was handled above only for *deliverable*
		// interrupts, so also check the raw pending set (including VS-level
		// sources injected through hvip).
		wake := h.CSR.Mip(h.Time())&h.CSR.Mie != 0
		if h.Cfg.HasH && h.CSR.Hvip&h.CSR.Hie != 0 {
			wake = true
		}
		if wake {
			h.Waiting = false
		} else {
			// No wakeup is possible once every enable is clear: hvip only
			// changes by this hart's own CSR writes, so pending VS state
			// cannot appear while it sleeps.
			if h.CSR.Mie == 0 && (!h.Cfg.HasH || h.CSR.Hie == 0) {
				h.Halt(ErrLockup.Error())
				return
			}
			h.charge(h.Cfg.Cost.WFIIdle)
			return
		}
	}
	if h.fast.on {
		d, ei := h.fetchFast()
		if ei != nil {
			if ei == errParked {
				h.park = parkReplay
				return
			}
			h.raise(ei)
			return
		}
		// Superblock dispatch point: the pending-interrupt check above has
		// already run for this step, and the scheduler's cycle/step limits
		// (set when it armed us) bound the block so later latch points
		// land exactly where per-instruction stepping would put them.
		if h.sb.armed {
			if n := h.sbTry(); n > 0 {
				h.sb.retired = n
				return
			}
		}
		h.exec(d)
		return
	}
	raw, ei := h.fetch()
	if ei != nil {
		if ei == errParked {
			h.park = parkReplay
			return
		}
		h.raise(ei)
		return
	}
	h.execute(raw)
}

// fetch reads the 32-bit instruction at PC (reference path; fetchFast is
// the accelerated equivalent).
func (h *Hart) fetch() (uint32, *Exc) {
	if h.PC&3 != 0 {
		return 0, h.exc(rv.ExcInstrAddrMisaligned, h.PC)
	}
	// Fetch always uses the true privilege mode; MPRV affects data only.
	env := h.mmuEnv(h.Mode, h.V)
	res := mmu.Translate(env, h.PC, mem.Exec)
	if !res.OK {
		if h.inSlice && h.mem.TakeBlocked() {
			return 0, errParked
		}
		ei := h.exc(res.Cause, h.PC)
		ei.Gpa = res.GPA
		return 0, ei
	}
	if !h.CSR.PMP.Check(res.PA, 4, mem.Exec, h.Mode) {
		return 0, h.exc(rv.ExcInstrAccessFault, h.PC)
	}
	v, ok := h.mem.Load(res.PA, 4)
	if !ok {
		if h.inSlice && h.mem.TakeBlocked() {
			return 0, errParked
		}
		return 0, h.exc(rv.ExcInstrAccessFault, h.PC)
	}
	return uint32(v), nil
}

func (h *Hart) mmuEnv(priv rv.Mode, virt bool) *mmu.Env {
	e := &h.envCache
	e.Bus = h.mem
	e.PMP = h.CSR.PMP
	e.Priv = priv
	e.HLVX = false
	if virt {
		// Guest context: VS-stage translation under vsatp with the guest's
		// SUM/MXR, composed with the G-stage under hgatp.
		e.Satp = h.CSR.Vsatp
		e.V = true
		e.Hgatp = h.CSR.Hgatp
		e.SUM = rv.Bit(h.CSR.Vsstatus, rv.MstatusSUM) != 0
		e.MXR = rv.Bit(h.CSR.Vsstatus, rv.MstatusMXR) != 0
		return e
	}
	e.Satp = h.CSR.Satp
	e.V = false
	e.Hgatp = 0
	e.SUM = rv.Bit(h.CSR.Mstatus, rv.MstatusSUM) != 0
	e.MXR = rv.Bit(h.CSR.Mstatus, rv.MstatusMXR) != 0
	return e
}

// effectivePriv returns the privilege mode governing a data access,
// honouring mstatus.MPRV.
func (h *Hart) effectivePriv() rv.Mode {
	if rv.Bit(h.CSR.Mstatus, rv.MstatusMPRV) != 0 {
		return rv.MPP(h.CSR.Mstatus)
	}
	return h.Mode
}

// effectivePrivV returns the privilege mode and virtualization mode
// governing a data access: MPRV substitutes MPP (and, with the hypervisor
// extension, MPV unless MPP is M); otherwise the hart's current pair.
func (h *Hart) effectivePrivV() (rv.Mode, bool) {
	if rv.Bit(h.CSR.Mstatus, rv.MstatusMPRV) != 0 {
		mpp := rv.MPP(h.CSR.Mstatus)
		virt := h.Cfg.HasH && mpp != rv.ModeM &&
			rv.Bit(h.CSR.Mstatus, rv.MstatusMPV) != 0
		return mpp, virt
	}
	return h.Mode, h.V
}

// misalignedCause maps an access type to its misaligned-exception cause.
func misalignedCause(acc mem.AccessType) uint64 {
	if acc == mem.Write {
		return rv.ExcStoreAddrMisaligned
	}
	return rv.ExcLoadAddrMisaligned
}

func accessFaultCause(acc mem.AccessType) uint64 {
	if acc == mem.Write {
		return rv.ExcStoreAccessFault
	}
	return rv.ExcLoadAccessFault
}

// MemAccess performs a data access at virtual address va with full
// architectural checking (alignment, translation, PMP). For writes, value
// is stored and the returned value is 0. Exposed (capitalized) because the
// monitor uses it to perform accesses on behalf of the firmware (MPRV
// emulation) — with the *hart's* current state, exactly like hardware MPRV.
func (h *Hart) MemAccess(va uint64, size int, acc mem.AccessType, value uint64, requireAligned bool) (uint64, *Exc) {
	if va%uint64(size) != 0 {
		if requireAligned || !h.Cfg.HWMisaligned {
			return 0, h.exc(misalignedCause(acc), va)
		}
	}
	priv, virt := h.effectivePrivV()
	pa, ei := h.translate(va, acc, priv, virt)
	if ei != nil {
		return 0, ei
	}
	if !h.CSR.PMP.Check(pa, size, acc, priv) {
		return 0, h.exc(accessFaultCause(acc), va)
	}
	h.charge(h.Cfg.Cost.MemAccess)
	if acc == mem.Write {
		if !h.mem.Store(pa, size, value) {
			if h.inSlice && h.mem.TakeBlocked() {
				return 0, errParked
			}
			return 0, h.exc(rv.ExcStoreAccessFault, va)
		}
		// A store to the reservation's region kills it — this hart's
		// immediately, and every peer's, as cache coherence would. During a
		// parallel slice the store is buffered: this hart's own caches see
		// it at once (noteOwnStore), peers' reservations and caches when it
		// commits at the barrier.
		if h.resValid && pa&^7 == h.resAddr&^7 {
			h.resValid = false
		}
		if h.inSlice {
			h.noteOwnStore(pa, size)
		} else {
			for _, p := range h.peers {
				p.KillReservation(pa)
			}
		}
		return 0, nil
	}
	v, ok := h.mem.Load(pa, size)
	if !ok {
		if h.inSlice && h.mem.TakeBlocked() {
			return 0, errParked
		}
		return 0, h.exc(rv.ExcLoadAccessFault, va)
	}
	return v, nil
}

// SetReservation registers an LR reservation at addr on behalf of the
// hart. The monitor uses it when it emulates a trapped LR (MPRV or MMIO
// window) so that a later, directly-executed SC still succeeds.
func (h *Hart) SetReservation(addr uint64) {
	h.resValid, h.resAddr = true, addr
}

// KillReservation invalidates the reservation if pa falls in its 8-byte
// region, mirroring what a store through MemAccess does. The monitor calls
// it after stores it performs on the hart's behalf.
func (h *Hart) KillReservation(pa uint64) {
	if h.resValid && pa&^7 == h.resAddr&^7 {
		h.resValid = false
	}
}

// Translate exposes address translation with the hart's current state; the
// monitor uses it for MPRV emulation (software page-table walk on behalf of
// the firmware).
func (h *Hart) Translate(va uint64, acc mem.AccessType, priv rv.Mode) (uint64, *Exc) {
	return h.TranslateV(va, acc, priv, false)
}

// TranslateV is Translate with an explicit virtualization mode: with virt
// set the walk runs in the guest's two-stage context (vsatp + hgatp).
func (h *Hart) TranslateV(va uint64, acc mem.AccessType, priv rv.Mode, virt bool) (uint64, *Exc) {
	env := h.mmuEnv(priv, virt)
	res := mmu.Translate(env, va, acc)
	if !res.OK {
		ei := h.exc(res.Cause, va)
		ei.Gpa = res.GPA
		return 0, ei
	}
	return res.PA, nil
}

// String renders a one-line hart state summary for debugging.
func (h *Hart) String() string {
	return fmt.Sprintf("hart%d pc=%#x mode=%v cycles=%d", h.ID, h.PC, h.Mode, h.Cycles)
}
