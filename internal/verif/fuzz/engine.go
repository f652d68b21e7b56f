package fuzz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/refmodel"
	"govfm/internal/rv"
)

// Finding is one divergence between the three derivations of the
// specification (native machine, virtualized machine, reference model).
type Finding struct {
	Case   *TestCase
	Step   int    // lockstep steps completed when the divergence appeared
	Where  string // which pair diverged
	Word   uint32 // instruction word fetched at the diverging step
	Deltas []refmodel.Delta
}

func (f *Finding) String() string {
	s := fmt.Sprintf("%s at step %d (word %#08x) in %s", f.Where, f.Step, f.Word, f.Case)
	for _, d := range f.Deltas {
		s += "\n  " + deltaString(d)
	}
	return s
}

// deltaString renders a delta; one whose sides are equal carries its whole
// description in Field (diffTwin's machine differences).
func deltaString(d refmodel.Delta) string {
	if d.A == d.B {
		return d.Field
	}
	return d.String()
}

// Divergence pair labels.
const (
	WhereNativeModel = "native-vs-model"
	WhereVirtModel   = "virt-vs-model"
	WhereNativeVirt  = "native-vs-virt"
	WhereMemory      = "memory"
	WhereMonitorHalt = "monitor-halt"
	WhereHalt        = "halt-mismatch"
	WhereInterrupt   = "unexpected-interrupt"
)

// Engine runs test cases in lockstep on one platform profile. It owns two
// machines — Native executes bare (the hart's own M/S/U implementation is
// the firmware), Virt runs the same state as virtual firmware under the
// monitor — plus two reference-model shadows advanced per step.
type Engine struct {
	Profile string

	Native *hart.Machine
	Virt   *hart.Machine
	Mon    *core.Monitor
	Ctx    *core.HartCtx

	// PhysCfg describes the native hart to the reference model; VirtCfg
	// describes the virtual hart (fewer PMP entries, forced mideleg).
	PhysCfg *refmodel.Config
	VirtCfg *refmodel.Config

	GenCfg *asm.GenCfg

	// HextBias, on H-capable profiles, skews GenCase toward the hypervisor
	// surface: guest (V=1) starting states, rich hedeleg/hvip delegation,
	// and guest trap vectors that land back inside the program.
	HextBias bool

	// Cov, when set, receives coverage keys derived from monitor and trap
	// events; the fuzzer uses new keys as its corpus signal.
	Cov func(key uint64)

	natBase  *hart.MachineSnapshot
	virtBase *hart.MachineSnapshot
	natTrap  *hart.TrapInfo
}

// NewEngine builds the paired machines for a profile name from
// hart.Profiles (the cmd/fuzzdiff alias "vf2" is resolved by the caller).
func NewEngine(profile string) (*Engine, error) {
	mk, ok := hart.Profiles()[profile]
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown profile %q", profile)
	}
	cfgN, cfgV := mk(), mk()
	// One hart per machine: the differential harness is single-hart, and
	// idle siblings would only burn steps.
	cfgN.Harts, cfgV.Harts = 1, 1

	native, err := hart.NewMachine(cfgN, core.DramSize)
	if err != nil {
		return nil, err
	}
	virt, err := hart.NewMachine(cfgV, core.DramSize)
	if err != nil {
		return nil, err
	}

	e := &Engine{Profile: profile, Native: native, Virt: virt}

	mon, err := core.Attach(virt, core.Options{
		FirmwareEntry: ProgBase,
		OnEmulate: func(c *core.HartCtx, raw uint32) {
			e.emit(1<<56 | uint64(raw&0xFFF0707F))
		},
		OnVirtTrap: func(c *core.HartCtx, cause, tval uint64) {
			e.emit(2<<56 | foldCause(cause)<<8 | uint64(c.VirtMode))
		},
		OnWorldSwitch: func(c *core.HartCtx, to core.World) {
			e.emit(3<<56 | uint64(to))
		},
	})
	if err != nil {
		return nil, err
	}
	e.Mon = mon
	e.Ctx = mon.Ctx[0]

	e.PhysCfg = refCfg(cfgN, cfgN.NumPMP, false)
	e.VirtCfg = refCfg(cfgN, mon.NumVirtPMP(), true)
	e.GenCfg = &asm.GenCfg{
		Slots:      Slots,
		DataRegs:   []int{10, 11, 12, 13, 14, 15},
		BaseRegs:   []int{16, 17, 18},
		BaseWindow: 2048,
		CSRs:       csrSpecs(e.VirtCfg),
		HFence:     e.VirtCfg.HasH,
	}

	// Baselines. The CLINT comparator resets to zero, which asserts MTIP
	// immediately; silence it so the native machine sees no machine-timer
	// interrupt (interrupt delivery timing is inherently asymmetric and is
	// excluded from lockstep — see Run).
	native.Reset(ProgBase)
	native.Clint.SetMtimecmp(0, ^uint64(0))
	e.natBase = native.Checkpoint()
	native.Harts[0].OnTrap = func(ti hart.TrapInfo) {
		t := ti
		e.natTrap = &t
		e.emit(4<<56 | foldCause(ti.Cause)<<8 | uint64(ti.FromMode))
	}

	mon.Boot()
	e.virtBase = virt.Checkpoint()
	return e, nil
}

func (e *Engine) emit(key uint64) {
	if e.Cov != nil {
		e.Cov(key)
	}
}

// foldCause compresses an mcause value into a small coverage field.
func foldCause(cause uint64) uint64 {
	c := rv.CauseCode(cause) & 0x3F
	if rv.CauseIsInterrupt(cause) {
		c |= 0x40
	}
	return c
}

// refCfg derives a reference-model configuration from a hart profile.
func refCfg(cfg *hart.Config, pmpCount int, midelegForced bool) *refmodel.Config {
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

// csrSpecs lists the CSRs the generator may access and in which forms.
// The restrictions keep the native and virtualized executions
// path-coincident:
//
//   - mideleg is set-only: the virtual mideleg hardwires the S bits while
//     the native one is writable, so programs may only keep it at the
//     canonical 0x222.
//   - mip/sip are immediate-only (zimm ≤ 31 reaches SSIP but not the
//     timer/external bits, which are hardware-driven and asymmetric).
//   - satp is immediate-only so the mode nibble stays Bare (classification
//     reads instruction memory physically).
//   - menvcfg is immediate-only so Sstc's STCE (bit 63) stays clear; STIP
//     would otherwise depend on the free-running clock.
//   - pmpcfg is immediate-only (byte 0; the lock bit 0x80 is unreachable
//     from a 5-bit immediate, NAPOT 0x18 is reachable) while pmpaddr is
//     unrestricted; only virtual-count entries are named at all, because
//     entries past it exist natively but not under the monitor.
//   - counters are read-only, and the engine resynchronizes the destination
//     register after each read (cycle counts legitimately differ).
func csrSpecs(cfg *refmodel.Config) []asm.GenCSR {
	specs := []asm.GenCSR{
		{CSR: rv.CSRMstatus, Forms: asm.FormsAll},
		{CSR: rv.CSRMisa, Forms: asm.FormsAll},
		{CSR: rv.CSRMedeleg, Forms: asm.FormsAll},
		{CSR: rv.CSRMideleg, Forms: asm.FormsSet},
		{CSR: rv.CSRMie, Forms: asm.FormsAll},
		{CSR: rv.CSRMtvec, Forms: asm.FormsAll},
		{CSR: rv.CSRMcounteren, Forms: asm.FormsAll},
		{CSR: rv.CSRMscratch, Forms: asm.FormsAll},
		{CSR: rv.CSRMepc, Forms: asm.FormsAll},
		{CSR: rv.CSRMcause, Forms: asm.FormsAll},
		{CSR: rv.CSRMtval, Forms: asm.FormsAll},
		{CSR: rv.CSRMseccfg, Forms: asm.FormsAll},
		{CSR: rv.CSRMcountinhibit, Forms: asm.FormsAll},
		{CSR: rv.CSRMip, Forms: asm.FormsImm},
		{CSR: rv.CSRMenvcfg, Forms: asm.FormsImm},
		{CSR: rv.CSRSstatus, Forms: asm.FormsAll},
		{CSR: rv.CSRSie, Forms: asm.FormsAll},
		{CSR: rv.CSRStvec, Forms: asm.FormsAll},
		{CSR: rv.CSRScounteren, Forms: asm.FormsAll},
		{CSR: rv.CSRSenvcfg, Forms: asm.FormsAll},
		{CSR: rv.CSRSscratch, Forms: asm.FormsAll},
		{CSR: rv.CSRSepc, Forms: asm.FormsAll},
		{CSR: rv.CSRScause, Forms: asm.FormsAll},
		{CSR: rv.CSRStval, Forms: asm.FormsAll},
		{CSR: rv.CSRSip, Forms: asm.FormsImm},
		{CSR: rv.CSRSatp, Forms: asm.FormsImm},
		{CSR: rv.CSRMvendorid, Forms: asm.FormsRead},
		{CSR: rv.CSRMarchid, Forms: asm.FormsRead},
		{CSR: rv.CSRMimpid, Forms: asm.FormsRead},
		{CSR: rv.CSRMhartid, Forms: asm.FormsRead},
		{CSR: rv.CSRMconfigptr, Forms: asm.FormsRead},
		{CSR: rv.CSRMcycle, Forms: asm.FormsRead},
		{CSR: rv.CSRMinstret, Forms: asm.FormsRead},
		{CSR: rv.CSRCycle, Forms: asm.FormsRead},
		{CSR: rv.CSRInstret, Forms: asm.FormsRead},
		{CSR: rv.CSRTime, Forms: asm.FormsRead},
		{CSR: rv.CSRHpmcounter3, Forms: asm.FormsRead},
		{CSR: rv.CSRPmpcfg0, Forms: asm.FormsImm},
	}
	for i := 0; i < cfg.PMPCount; i++ {
		specs = append(specs, asm.GenCSR{CSR: rv.CSRPmpaddr0 + uint16(i), Forms: asm.FormsAll})
	}
	if cfg.PMPCount > 8 {
		specs = append(specs, asm.GenCSR{CSR: rv.CSRPmpcfg2, Forms: asm.FormsImm})
	}
	if cfg.HasSstc {
		specs = append(specs, asm.GenCSR{CSR: rv.CSRStimecmp, Forms: asm.FormsAll})
	}
	if cfg.HasH {
		for _, n := range []uint16{
			rv.CSRHstatus, rv.CSRHedeleg, rv.CSRHideleg, rv.CSRHie,
			rv.CSRHcounteren, rv.CSRHgeie, rv.CSRHtval, rv.CSRHip, rv.CSRHvip,
			rv.CSRHtinst, rv.CSRHenvcfg,
			rv.CSRVsstatus, rv.CSRVsie, rv.CSRVstvec, rv.CSRVsscratch,
			rv.CSRVsepc, rv.CSRVscause, rv.CSRVstval, rv.CSRVsip,
			rv.CSRMtinst, rv.CSRMtval2,
		} {
			specs = append(specs, asm.GenCSR{CSR: n, Forms: asm.FormsAll})
		}
		// hgatp and vsatp are immediate-only for the same reason satp is:
		// a 5-bit immediate cannot reach the mode nibble, so a fuzzed write
		// never switches real translation on mid-case.
		specs = append(specs,
			asm.GenCSR{CSR: rv.CSRHgatp, Forms: asm.FormsImm},
			asm.GenCSR{CSR: rv.CSRVsatp, Forms: asm.FormsImm})
	}
	for _, n := range cfg.CustomCSRs {
		specs = append(specs, asm.GenCSR{CSR: n, Forms: asm.FormsAll})
	}
	return specs
}

func (e *Engine) genProg(rng *rand.Rand) []uint32 { return asm.Generate(rng, e.GenCfg) }

func (e *Engine) genOne(rng *rand.Rand, slot int) uint32 { return asm.GenOne(rng, e.GenCfg, slot) }

// inRegion reports whether pc is inside the program or scratch window —
// the only regions where execution is symmetric by construction (below the
// firmware base, memory is monitor-protected on the virtualized machine
// but plain RAM on the native one).
func inRegion(pc uint64) bool {
	return (pc >= ProgBase && pc < ProgBase+ProgCap) ||
		(pc >= ScratchBase && pc < ScratchBase+ScratchSize)
}

func inProg(pc uint64) bool { return pc >= ProgBase && pc < ProgBase+ProgCap }

// memEffAddr decodes a memory instruction's effective address from the
// hart's current registers, pre-step. ok is false for non-memory opcodes.
func memEffAddr(w uint32, h *hart.Hart) (addr uint64, size int, ok bool) {
	switch w & 0x7F {
	case 0x03: // loads
		return h.Reg(rv.Rs1Of(w)) + rv.ImmI(w), 1 << (w >> 12 & 3), true
	case 0x23: // stores
		return h.Reg(rv.Rs1Of(w)) + rv.ImmS(w), 1 << (w >> 12 & 3), true
	case 0x2F: // AMO/LR/SC address directly from rs1
		size = 4
		if w>>12&7 == 3 {
			size = 8
		}
		return h.Reg(rv.Rs1Of(w)), size, true
	}
	return 0, 0, false
}

// dataInRegion reports whether the whole access [addr, addr+size) stays
// inside the program or scratch window.
func dataInRegion(addr uint64, size int) bool {
	end := addr + uint64(size)
	if end < addr {
		return false
	}
	return (addr >= ProgBase && end <= ProgBase+ProgCap) ||
		(addr >= ScratchBase && end <= ScratchBase+ScratchSize)
}

// isCounterCSR names the counters whose read values legitimately differ
// between the machines (cycle accounting) and are resynchronized from the
// native hart after each read.
func isCounterCSR(n uint16) bool {
	switch n {
	case rv.CSRMcycle, rv.CSRMinstret, rv.CSRCycle, rv.CSRInstret:
		return true
	}
	return false
}

func isCSROp(op refmodel.Op) bool {
	switch op {
	case refmodel.OpCSRRW, refmodel.OpCSRRS, refmodel.OpCSRRC,
		refmodel.OpCSRRWI, refmodel.OpCSRRSI, refmodel.OpCSRRCI:
		return true
	}
	return false
}

// installNative writes a canonical state onto the native hart verbatim.
func (e *Engine) installNative(s *refmodel.State) {
	h := e.Native.Harts[0]
	c := &h.CSR
	h.Regs = s.Regs
	h.Regs[0] = 0
	h.PC = s.PC
	h.Mode = rv.Mode(s.Priv)

	c.WriteMstatus(s.Status.Bits())
	c.Medeleg = s.Medeleg
	c.Mideleg = s.Mideleg
	c.Mie = s.Mie
	c.Mtvec = s.Mtvec
	c.Mcounteren = s.Mcounteren
	c.Menvcfg = s.Menvcfg
	c.Mscratch = s.Mscratch
	c.Mepc = s.Mepc
	c.Mcause = s.Mcause
	c.Mtval = s.Mtval
	c.Mseccfg = s.Mseccfg
	c.Mcountinhibit = s.Mcountinhibit
	c.Stvec = s.Stvec
	c.Scounteren = s.Scounteren
	c.Senvcfg = s.Senvcfg
	c.Sscratch = s.Sscratch
	c.Sepc = s.Sepc
	c.Scause = s.Scause
	c.Stval = s.Stval
	c.Satp = s.Satp
	c.Stimecmp = s.Stimecmp
	c.SetMip(s.MipSW)
	if e.PhysCfg.HasH {
		h.V = s.V
		c.Hstatus, c.Hedeleg, c.Hideleg = s.Hstatus, s.Hedeleg, s.Hideleg
		c.Hie, c.Hcounteren, c.Hgeie = s.Hie, s.Hcounteren, s.Hgeie
		c.Htval, c.Hip, c.Hvip = s.Htval, s.Hip, s.Hvip
		c.Htinst, c.Hgatp, c.Henvcfg = s.Htinst, s.Hgatp, s.Henvcfg
		c.Vsstatus, c.Vsie, c.Vstvec, c.Vsscratch = s.Vsstatus, s.Vsie, s.Vstvec, s.Vsscratch
		c.Vsepc, c.Vscause, c.Vstval, c.Vsip, c.Vsatp = s.Vsepc, s.Vscause, s.Vstval, s.Vsip, s.Vsatp
		c.Mtinst, c.Mtval2 = s.Mtinst, s.Mtval2
	}
	for _, n := range e.VirtCfg.CustomCSRs {
		c.Custom[n] = s.Custom[n]
	}
	for i := 0; i < e.PhysCfg.PMPCount; i++ {
		if i < e.VirtCfg.PMPCount {
			c.PMP.ForceAddr(i, s.PmpAddr[i])
			c.PMP.ForceCfg(i, s.PmpCfg[i])
		} else {
			c.PMP.ForceAddr(i, 0)
			c.PMP.ForceCfg(i, 0)
		}
	}
}

// installVirt writes the same canonical state into the monitor's virtual
// CSR file and asks the monitor to project it onto the physical hart,
// exactly as a world switch would.
func (e *Engine) installVirt(s *refmodel.State) {
	ctx := e.Ctx
	h := ctx.Hart
	v := ctx.V

	v.Mstatus = s.Status.Bits()
	v.Medeleg = s.Medeleg
	v.Mideleg = s.Mideleg
	v.Mie = s.Mie
	v.Mtvec = s.Mtvec
	v.Mcounteren = s.Mcounteren
	v.Menvcfg = s.Menvcfg
	v.Mcountinhibit = s.Mcountinhibit
	v.Mscratch = s.Mscratch
	v.Mepc = s.Mepc
	v.Mcause = s.Mcause
	v.Mtval = s.Mtval
	v.Mseccfg = s.Mseccfg
	v.Stvec = s.Stvec
	v.Scounteren = s.Scounteren
	v.Senvcfg = s.Senvcfg
	v.Sscratch = s.Sscratch
	v.Sepc = s.Sepc
	v.Scause = s.Scause
	v.Stval = s.Stval
	v.Satp = s.Satp
	v.Stimecmp = s.Stimecmp
	v.MipSW = s.MipSW
	if e.VirtCfg.HasH {
		ctx.VirtV = s.V
		v.Hstatus, v.Hedeleg, v.Hideleg = s.Hstatus, s.Hedeleg, s.Hideleg
		v.Hie, v.Hcounteren, v.Hgeie = s.Hie, s.Hcounteren, s.Hgeie
		v.Htval, v.Hip, v.Hvip = s.Htval, s.Hip, s.Hvip
		v.Htinst, v.Hgatp, v.Henvcfg = s.Htinst, s.Hgatp, s.Henvcfg
		v.Vsstatus, v.Vsie, v.Vstvec, v.Vsscratch = s.Vsstatus, s.Vsie, s.Vstvec, s.Vsscratch
		v.Vsepc, v.Vscause, v.Vstval, v.Vsip, v.Vsatp = s.Vsepc, s.Vscause, s.Vstval, s.Vsip, s.Vsatp
		v.Mtinst, v.Mtval2 = s.Mtinst, s.Mtval2
	}
	for _, n := range e.VirtCfg.CustomCSRs {
		v.Custom[n] = s.Custom[n]
	}
	for i := 0; i < e.VirtCfg.PMPCount; i++ {
		v.PMP.ForceAddr(i, s.PmpAddr[i])
		v.PMP.ForceCfg(i, s.PmpCfg[i])
	}

	ctx.VirtMode = rv.Mode(s.Priv)
	h.Regs = s.Regs
	h.Regs[0] = 0
	h.PC = s.PC
	if s.Priv == refmodel.M {
		h.Mode = rv.ModeU // vM runs deprivileged
		h.V = false
	} else {
		// Direct execution: the guest's virtualization mode is the physical
		// one.
		h.Mode = rv.Mode(s.Priv)
		h.V = s.V
	}
	e.Mon.VerifInstallState(ctx)
}

// nativeView captures the native hart as a reference-model state.
func (e *Engine) nativeView() *refmodel.State {
	h := e.Native.Harts[0]
	c := &h.CSR
	s := refmodel.NewState()
	s.Regs = h.Regs
	s.Regs[0] = 0
	s.PC = h.PC
	s.Priv = uint8(h.Mode)
	s.Status = refmodel.MstatusFromBits(c.Mstatus)
	s.Medeleg, s.Mideleg, s.Mie = c.Medeleg, c.Mideleg, c.Mie
	s.MipSW = c.MipSW()
	s.MipHW = e.Native.Clint.Pending(0) | e.Native.Plic.Pending(0)
	s.Mtvec, s.Mcounteren, s.Menvcfg = c.Mtvec, c.Mcounteren, c.Menvcfg
	s.Mscratch, s.Mepc, s.Mcause, s.Mtval = c.Mscratch, c.Mepc, c.Mcause, c.Mtval
	s.Mseccfg, s.Mcountinhibit = c.Mseccfg, c.Mcountinhibit
	s.Stvec, s.Scounteren, s.Senvcfg = c.Stvec, c.Scounteren, c.Senvcfg
	s.Sscratch, s.Sepc, s.Scause, s.Stval = c.Sscratch, c.Sepc, c.Scause, c.Stval
	s.Satp, s.Stimecmp = c.Satp, c.Stimecmp
	if e.PhysCfg.HasH {
		s.V = h.V
		s.Hstatus, s.Hedeleg, s.Hideleg = c.Hstatus, c.Hedeleg, c.Hideleg
		s.Hie, s.Hcounteren, s.Hgeie = c.Hie, c.Hcounteren, c.Hgeie
		s.Htval, s.Hip, s.Hvip = c.Htval, c.Hip, c.Hvip
		s.Htinst, s.Hgatp, s.Henvcfg = c.Htinst, c.Hgatp, c.Henvcfg
		s.Vsstatus, s.Vsie, s.Vstvec, s.Vsscratch = c.Vsstatus, c.Vsie, c.Vstvec, c.Vsscratch
		s.Vsepc, s.Vscause, s.Vstval, s.Vsip, s.Vsatp = c.Vsepc, c.Vscause, c.Vstval, c.Vsip, c.Vsatp
		s.Mtinst, s.Mtval2 = c.Mtinst, c.Mtval2
	}
	for _, n := range e.VirtCfg.CustomCSRs {
		s.Custom[n] = c.Custom[n]
	}
	for i := 0; i < e.PhysCfg.PMPCount; i++ {
		s.PmpCfg[i] = c.PMP.Cfg(i)
		s.PmpAddr[i] = c.PMP.Addr(i)
	}
	s.WFI = h.Waiting
	return s
}

// virtView captures the virtualized machine's architectural virtual state.
func (e *Engine) virtView() *refmodel.State {
	ctx := e.Ctx
	e.Mon.VerifSyncVirtState(ctx) // idempotent physical→virtual copy in OS world
	h := ctx.Hart
	v := ctx.V
	s := refmodel.NewState()
	s.Regs = h.Regs
	s.Regs[0] = 0
	s.PC = h.PC
	if ctx.VirtMode == rv.ModeM {
		s.Priv = refmodel.M
	} else {
		// During direct execution the OS changes privilege without monitor
		// involvement; the physical mode is the virtual mode.
		s.Priv = uint8(h.Mode)
	}
	s.Status = refmodel.MstatusFromBits(v.Mstatus)
	s.Medeleg, s.Mideleg, s.Mie = v.Medeleg, v.Mideleg, v.Mie
	s.MipSW = v.MipSW
	s.MipHW = e.Mon.VClint().VirtPending(0)
	s.Mtvec, s.Mcounteren, s.Menvcfg = v.Mtvec, v.Mcounteren, v.Menvcfg
	s.Mscratch, s.Mepc, s.Mcause, s.Mtval = v.Mscratch, v.Mepc, v.Mcause, v.Mtval
	s.Mseccfg, s.Mcountinhibit = v.Mseccfg, v.Mcountinhibit
	s.Stvec, s.Scounteren, s.Senvcfg = v.Stvec, v.Scounteren, v.Senvcfg
	s.Sscratch, s.Sepc, s.Scause, s.Stval = v.Sscratch, v.Sepc, v.Scause, v.Stval
	s.Satp, s.Stimecmp = v.Satp, v.Stimecmp
	if e.VirtCfg.HasH {
		if ctx.VirtMode != rv.ModeM {
			s.V = h.V
		}
		s.Hstatus, s.Hedeleg, s.Hideleg = v.Hstatus, v.Hedeleg, v.Hideleg
		s.Hie, s.Hcounteren, s.Hgeie = v.Hie, v.Hcounteren, v.Hgeie
		s.Htval, s.Hip, s.Hvip = v.Htval, v.Hip, v.Hvip
		s.Htinst, s.Hgatp, s.Henvcfg = v.Htinst, v.Hgatp, v.Henvcfg
		s.Vsstatus, s.Vsie, s.Vstvec, s.Vsscratch = v.Vsstatus, v.Vsie, v.Vstvec, v.Vsscratch
		s.Vsepc, s.Vscause, s.Vstval, s.Vsip, s.Vsatp = v.Vsepc, v.Vscause, v.Vstval, v.Vsip, v.Vsatp
		s.Mtinst, s.Mtval2 = v.Mtinst, v.Mtval2
	}
	for _, n := range e.VirtCfg.CustomCSRs {
		s.Custom[n] = v.Custom[n]
	}
	for i := 0; i < e.VirtCfg.PMPCount; i++ {
		s.PmpCfg[i] = v.PMP.Cfg(i)
		s.PmpAddr[i] = v.PMP.Addr(i)
	}
	s.WFI = ctx.VirtWaiting || h.Waiting
	return s
}

// Run executes one test case in lockstep and returns the first divergence
// (nil if none) plus the number of lockstep steps retired.
func (e *Engine) Run(tc *TestCase) (*Finding, int) {
	e.canonicalize(tc)
	s := tc.State

	e.Native.Restore(e.natBase)
	e.Virt.Restore(e.virtBase)
	e.Mon.ResetVirt(e.Ctx)

	loadWindows(e.Native, tc.Prog)
	loadWindows(e.Virt, tc.Prog)

	e.installNative(s)
	e.installVirt(s)

	sp := s.Clone() // shadow of the native machine
	sv := s.Clone() // shadow of the virtualized machine

	finding := func(where string, step int, word uint32, deltas []refmodel.Delta) *Finding {
		return &Finding{Case: tc, Step: step, Where: where, Word: word, Deltas: deltas}
	}

	step := 0
	for ; step < StepBudget; step++ {
		// Machine-level end states.
		if e.Mon.HaltedReason != "" {
			return finding(WhereMonitorHalt, step, 0, []refmodel.Delta{
				{Field: "monitor halted: " + e.Mon.HaltedReason, A: 1, B: 0}}), step
		}
		nh, nr := e.Native.Halted()
		vh, vr := e.Virt.Halted()
		if nh != vh || (nh && nr != vr) {
			return finding(WhereHalt, step, 0, []refmodel.Delta{
				{Field: fmt.Sprintf("halt: native=%q virt=%q", nr, vr),
					A: b2u(nh), B: b2u(vh)}}), step
		}
		if nh {
			break
		}

		pc := e.Native.Harts[0].PC
		if !inRegion(pc) {
			break // execution escaped the symmetric memory regions
		}

		// Deliver a pending delegated interrupt in lockstep: both physical
		// harts take the S-mode trap natively and identically. Anything
		// routed to M (monitor interception on one side, mtvec on the
		// other) has inherently different timing and ends the case.
		if code := refmodel.PendingInterrupt(e.PhysCfg, sp); code >= 0 {
			if sp.Mideleg>>uint(code)&1 == 0 || sp.Priv == refmodel.M {
				break
			}
			refmodel.TakeInterrupt(e.PhysCfg, sp, uint64(code))
			refmodel.TakeInterrupt(e.VirtCfg, sv, uint64(code))
			e.natTrap = nil
			e.Native.Step()
			e.Virt.Step()
			if f := e.diffStep(finding, step, 0, sp, sv); f != nil {
				return f, step
			}
			continue
		}

		wb, err := e.Native.Bus.ReadBytes(pc, 4)
		if err != nil {
			break
		}
		w := binary.LittleEndian.Uint32(wb)
		op := w & 0x7F
		modeled := op == 0x73 || op == 0x0F
		if modeled && !inProg(pc) {
			// SYSTEM instructions materialized in scratch data probe CSR
			// existence, which legitimately differs (e.g. PMP entries past
			// the virtual count); only generator-constrained programs are
			// lockstep-safe.
			break
		}
		if op == 0x73 {
			ins := refmodel.Decode(w)
			if isCSROp(ins.Op) && isCounterCSR(ins.CSR) &&
				!(ins.Op == refmodel.OpCSRRS && ins.Rs1 == 0) {
				break // counter writes warp the native clock
			}
		}
		if a, n, isMem := memEffAddr(w, e.Native.Harts[0]); isMem && !dataInRegion(a, n) {
			// The guest's data flow computed an address outside its own
			// program/scratch windows. Physical layout there is asymmetric
			// by design — the monitor's carve-out and the emulated devices
			// exist on one side only — and stores there would leak state
			// across cases, so the comparison stops here.
			break
		}

		e.natTrap = nil
		e.Native.Step()
		e.Virt.Step()
		nat := e.natTrap

		if nat != nil && rv.CauseIsInterrupt(nat.Cause) {
			return finding(WhereInterrupt, step, w, []refmodel.Delta{
				{Field: "cause", A: nat.Cause, B: 0}}), step
		}

		switch {
		case nat != nil && rv.CauseCode(nat.Cause) == rv.ExcInstrAccessFault:
			// The fetch itself faulted (PMP); the word read above never
			// reached the pipeline.
			refmodel.TakeException(e.PhysCfg, sp, rv.ExcInstrAccessFault, nat.Tval)
			refmodel.TakeException(e.VirtCfg, sv, rv.ExcInstrAccessFault, nat.Tval)
		case modeled:
			refmodel.HW(e.PhysCfg, sp, w)
			refmodel.HW(e.VirtCfg, sv, w)
		case nat != nil:
			refmodel.TakeException(e.PhysCfg, sp, rv.CauseCode(nat.Cause), nat.Tval)
			refmodel.TakeException(e.VirtCfg, sv, rv.CauseCode(nat.Cause), nat.Tval)
		default:
			// Unprivileged instruction, retired: the reference model does
			// not model it; the native hart's own result is the oracle both
			// shadows adopt (the virtualized machine must match it — that
			// is the native-vs-virt diff).
			h := e.Native.Harts[0]
			for i := 1; i < 32; i++ {
				sp.Regs[i] = h.Regs[i]
				sv.Regs[i] = h.Regs[i]
			}
			sp.PC, sv.PC = h.PC, h.PC
		}

		// Counter reads retire with machine-specific values; adopt the
		// native result on all sides.
		if modeled && nat == nil && op == 0x73 {
			ins := refmodel.Decode(w)
			if ins.Op == refmodel.OpCSRRS && ins.Rs1 == 0 && ins.Rd != 0 &&
				isCounterCSR(ins.CSR) {
				val := e.Native.Harts[0].Regs[ins.Rd]
				e.Virt.Harts[0].Regs[ins.Rd] = val
				sp.Regs[ins.Rd] = val
				sv.Regs[ins.Rd] = val
			}
		}

		if f := e.diffStep(finding, step, w, sp, sv); f != nil {
			return f, step
		}

		if sp.WFI || sv.WFI {
			break // all three sides agreed on WFI (diffed above); nothing wakes it
		}
	}

	// End of case: the memory images must agree wherever the program could
	// write.
	for _, r := range [][2]uint64{{ProgBase, ProgCap}, {ScratchBase, ScratchSize}} {
		nb, err1 := e.Native.Bus.ReadBytes(r[0], int(r[1]))
		vb, err2 := e.Virt.Bus.ReadBytes(r[0], int(r[1]))
		if err1 != nil || err2 != nil || !bytes.Equal(nb, vb) {
			off := 0
			for off < len(nb) && off < len(vb) && nb[off] == vb[off] {
				off++
			}
			return &Finding{Case: tc, Step: step, Where: WhereMemory,
				Deltas: []refmodel.Delta{{
					Field: fmt.Sprintf("mem[%#x]", r[0]+uint64(off)),
					A:     peek(nb, off), B: peek(vb, off)}}}, step
		}
	}
	return nil, step
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

func peek(b []byte, off int) uint64 {
	if off < len(b) {
		return uint64(b[off])
	}
	return 0
}

// diffStep compares all three pairs after one lockstep step.
func (e *Engine) diffStep(mk func(string, int, uint32, []refmodel.Delta) *Finding,
	step int, word uint32, sp, sv *refmodel.State) *Finding {
	nv := e.nativeView()
	if ds := refmodel.Diff(e.PhysCfg, nv, sp); len(ds) > 0 {
		return mk(WhereNativeModel, step, word, ds)
	}
	vv := e.virtView()
	if ds := refmodel.Diff(e.VirtCfg, vv, sv); len(ds) > 0 {
		return mk(WhereVirtModel, step, word, ds)
	}
	if ds := refmodel.Diff(e.VirtCfg, nv, vv); len(ds) > 0 {
		return mk(WhereNativeVirt, step, word, ds)
	}
	return nil
}
