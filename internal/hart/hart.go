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

	// LR/SC reservation. resHolders counts the harts of the machine that
	// hold one (setRes keeps it), so a store skips the walk over its peers
	// when no other hart does; a hart outside a machine counts in
	// ownHolders.
	resValid   bool
	resAddr    uint64
	resHolders *int
	ownHolders int

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

	// peers lists the machine's other harts, for cross-hart LR/SC
	// reservation kills on stores (wired by NewMachine).
	peers []*Hart
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
	h.resHolders = &h.ownHolders
	if bus != nil {
		bus.AddPageWatcher(h)
		bus.AddHostHolder(h)
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
	res := mmu.Translate(h.mmuEnv(h.Mode, h.V, false), h.PC, mem.Exec)
	if !res.OK {
		ei := h.exc(res.Cause, h.PC)
		ei.Gpa = res.GPA
		return 0, ei
	}
	if !h.CSR.PMP.Check(res.PA, 4, mem.Exec, h.Mode) {
		return 0, h.exc(rv.ExcInstrAccessFault, h.PC)
	}
	v, ok := h.Bus.Load(res.PA, 4)
	if !ok {
		return 0, h.exc(rv.ExcInstrAccessFault, h.PC)
	}
	return uint32(v), nil
}

// mmuEnv returns the translation env of an access at (priv, virt) over
// the hart's CSRs (hlvx as for mmu.Env.Set), in the reused envCache.
func (h *Hart) mmuEnv(priv rv.Mode, virt, hlvx bool) *mmu.Env {
	c := &h.CSR
	return h.envCache.Set(h.Bus, c.PMP, mmu.Regs{
		Satp: c.Satp, Vsatp: c.Vsatp, Hgatp: c.Hgatp,
		Mstatus: c.Mstatus, Vsstatus: c.Vsstatus,
	}, priv, virt, hlvx)
}

// effectivePrivV returns the privilege mode and virtualization mode
// governing a data access (rv.DataPriv over the hart's state).
func (h *Hart) effectivePrivV() (rv.Mode, bool) {
	return rv.DataPriv(h.CSR.Mstatus, h.Mode, h.V, h.Cfg.HasH)
}

// misalignedCause maps an access type to its misaligned-exception cause.
func misalignedCause(acc mem.AccessType) uint64 {
	if acc == mem.Write {
		return rv.ExcStoreAddrMisaligned
	}
	return rv.ExcLoadAddrMisaligned
}

func accessFaultCause(acc mem.AccessType) uint64 {
	switch acc {
	case mem.Write:
		return rv.ExcStoreAccessFault
	case mem.Exec:
		return rv.ExcInstrAccessFault
	}
	return rv.ExcLoadAccessFault
}

// MemAccess performs a data access at virtual address va with full
// architectural checking (alignment, translation, PMP). For writes, value
// is stored and the returned value is 0. Exposed (capitalized) because the
// monitor's misaligned fast path (fastPathMisaligned) performs the OS's
// byte accesses through it, with the *hart's* current state, exactly as the
// firmware's MPRV-based handler would.
//
// With the fast path on, an access the TLB holds a host entry for is a
// host load or store (see mmu.TLB), except a store into one of the page's
// watched lines; every other access resolves through the TLB and the bus.
func (h *Hart) MemAccess(va uint64, size int, acc mem.AccessType, value uint64, requireAligned bool) (uint64, *Exc) {
	if va&uint64(size-1) != 0 {
		if requireAligned || !h.Cfg.HWMisaligned {
			return 0, h.exc(misalignedCause(acc), va)
		}
	}
	priv, virt := h.effectivePrivV()
	var ctx uint32
	var translated bool
	if h.fast.on {
		ctx, translated = h.tlbCtx(priv, virt, false)
	}
	if ctx == 0 { // the fast path is off: walk, check and access in full
		pa, ei := h.translate(va, acc, priv, virt)
		if ei != nil {
			return 0, ei
		}
		if !h.CSR.PMP.Check(pa, size, acc, priv) {
			return 0, h.exc(accessFaultCause(acc), va)
		}
		h.charge(h.Cfg.Cost.MemAccess)
		if acc == mem.Write {
			if !h.Bus.Store(pa, size, value) {
				return 0, h.exc(rv.ExcStoreAccessFault, va)
			}
			h.KillReservations(pa)
			return 0, nil
		}
		v, ok := h.Bus.Load(pa, size)
		if !ok {
			return 0, h.exc(rv.ExcLoadAccessFault, va)
		}
		return v, nil
	}
	need := uint64(hostLoad)
	if acc == mem.Write {
		need = hostStore
	}
	if e := h.fast.tlb.Probe(va>>12, ctx); e != nil && e.PA&need == need && inPage(va, size) &&
		(e.Lines == 0 || acc != mem.Write || h.hostLinesMiss(e, va, size)) {
		if translated {
			h.Perf.TLBHits++
		}
		h.Perf.HostHits++
		h.charge(h.Cfg.Cost.MemAccess)
		if acc == mem.Write {
			mem.PageStore(e.Host, va&4095, size, value)
			h.KillReservations(e.Page() | va&4095)
			return 0, nil
		}
		return mem.PageLoad(e.Host, va&4095, size), nil
	}
	e, pa, ei := h.resolve(va, size, acc, priv, virt, ctx, translated)
	if ei != nil {
		return 0, ei
	}
	h.charge(h.Cfg.Cost.MemAccess)
	if acc == mem.Write {
		if !h.busStore(e, pa, size, value) {
			return 0, h.exc(rv.ExcStoreAccessFault, va)
		}
		h.KillReservations(pa)
		return 0, nil
	}
	v, ok := h.busLoad(e, pa, size)
	if !ok {
		return 0, h.exc(rv.ExcLoadAccessFault, va)
	}
	return v, nil
}

// SetReservation registers an LR reservation at addr on behalf of the
// hart. The monitor uses it when it emulates a trapped LR (MPRV or device
// window) so that a later, directly-executed SC still succeeds.
func (h *Hart) SetReservation(addr uint64) { h.setRes(true, addr) }

// setRes sets or drops the hart's reservation, keeping the machine's
// count of holders.
func (h *Hart) setRes(valid bool, addr uint64) {
	if valid != h.resValid {
		if valid {
			*h.resHolders++
		} else {
			*h.resHolders--
		}
	}
	h.resValid, h.resAddr = valid, addr
}

// killReservation invalidates the hart's own reservation if pa falls in
// its 8-byte region.
func (h *Hart) killReservation(pa uint64) {
	if h.resValid && pa&^7 == h.resAddr&^7 {
		h.setRes(false, h.resAddr)
	}
}

// KillReservations applies a store at pa by this hart to every LR/SC
// reservation on the machine: this hart's and each peer's die if they
// cover pa's doubleword, as cache coherence would on real hardware. The
// peers are visited only when one of them may hold a reservation. The
// monitor calls it after every store it performs on the hart's behalf.
func (h *Hart) KillReservations(pa uint64) {
	switch n := *h.resHolders; {
	case n == 0:
		return
	case n == 1 && h.resValid:
		h.killReservation(pa)
		return
	}
	h.killReservation(pa)
	for _, p := range h.peers {
		p.killReservation(pa)
	}
}

// TranslateV exposes address translation with the hart's current state at
// (priv, virt): with virt set the walk runs in the guest's two-stage
// context (vsatp + hgatp). The monitor uses it to fetch a trapping OS
// instruction.
func (h *Hart) TranslateV(va uint64, acc mem.AccessType, priv rv.Mode, virt bool) (uint64, *Exc) {
	res := mmu.Translate(h.mmuEnv(priv, virt, false), va, acc)
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
