// Package verif implements the paper's lightweight-formal-methods harness
// (§6): the monitor's specification is expressed as a function of the
// executable reference model (internal/refmodel, standing in for the
// official RISC-V Sail model), and two criteria are checked by systematic
// differential execution:
//
//   - Faithful emulation (Definition 1): for every privileged instruction
//     and virtual state, the monitor's emulator and the reference hw
//     function produce equivalent states.
//   - Faithful execution (Definition 2): the physical PMP file computed by
//     the monitor's cfg function makes direct firmware execution observe
//     exactly the protections a reference machine with the virtual PMP
//     file would enforce.
//
// Where the paper uses the Kani model checker for exhaustive symbolic
// execution, this harness enumerates the finite instruction/CSR space
// exhaustively and covers the value space with edge values plus seeded
// pseudo-random states — the same oracle, a different search strategy
// (documented in DESIGN.md).
package verif

import (
	"fmt"
	"math/rand"

	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/pmp"
	"govfm/internal/refmodel"
	"govfm/internal/rv"
)

// Harness owns a monitor-attached machine and the reference configuration
// mirroring its virtual hardware interface.
type Harness struct {
	Machine *hart.Machine
	Mon     *core.Monitor
	Ctx     *core.HartCtx
	RefCfg  *refmodel.Config
}

// NewHarness builds a single-hart machine with the monitor attached,
// using the given platform profile.
func NewHarness(cfg *hart.Config) (*Harness, error) {
	cfg.Harts = 1
	m, err := hart.NewMachine(cfg, core.DramSize)
	if err != nil {
		return nil, err
	}
	mon, err := core.Attach(m, core.Options{FirmwareEntry: core.FirmwareBase})
	if err != nil {
		return nil, err
	}
	mon.Boot()
	return &Harness{
		Machine: m,
		Mon:     mon,
		Ctx:     mon.Ctx[0],
		RefCfg:  RefConfig(cfg, mon.NumVirtPMP(), true),
	}, nil
}

// GenState draws a pseudo-random but architecturally legal virtual state
// and installs it into the monitor (Install), returning it as the
// reference state the checks advance.
func (h *Harness) GenState(rng *rand.Rand) *refmodel.State {
	c := h.RefCfg
	s := refmodel.NewState()

	// GPRs are shared between the worlds: the hart's registers.
	for i := 1; i < 32; i++ {
		s.Regs[i] = rng.Uint64()
	}

	// Virtual privilege mode (the firmware executes in vM; sret/mret need
	// the other modes reachable too). Only guests (VS/VU) run with V=1.
	s.Priv = []uint8{refmodel.M, refmodel.M, refmodel.M, refmodel.S, refmodel.U}[rng.Intn(5)]
	s.V = c.HasH && s.Priv != refmodel.M && rng.Intn(2) == 0

	// mstatus: random writable fields, legal MPP.
	mst := rng.Uint64() & (uint64(1)<<1 | 1<<3 | 1<<5 | 1<<7 | 1<<8 |
		1<<17 | 1<<18 | 1<<19 | 1<<20 | 1<<21 | 1<<22)
	mst |= []uint64{0, 1, 3}[rng.Intn(3)] << 11
	if c.HasH {
		mst |= rng.Uint64() & (uint64(1)<<rv.MstatusGVA | 1<<rv.MstatusMPV)
	}
	s.Status = refmodel.MstatusFromBits(mst)

	medelegMask := uint64(0xB3FF)
	s.Mideleg = 0x222
	if c.HasH {
		medelegMask |= 1<<10 | 1<<20 | 1<<21 | 1<<22 | 1<<23
		s.Mideleg |= rv.VSIntMask // hardwired-delegated with H
	}
	s.Medeleg = rng.Uint64() & medelegMask
	s.Mie = rng.Uint64() & 0xAAA
	s.Mtvec = rng.Uint64()&^3 | uint64(rng.Intn(2)) // mode 0/1 only
	s.Mcounteren = rng.Uint64() & 0xFFFF_FFFF
	s.Mscratch = rng.Uint64()
	s.Mepc = rng.Uint64() &^ 3
	s.Mcause = rng.Uint64()
	s.Mtval = rng.Uint64()
	s.Mseccfg = rng.Uint64() & 7
	s.Mcountinhibit = rng.Uint64() & 0xFFFF_FFFD
	s.Stvec = rng.Uint64() &^ 3
	s.Scounteren = rng.Uint64() & 0xFFFF_FFFF
	s.Senvcfg = rng.Uint64() & 1
	s.Sscratch = rng.Uint64()
	s.Sepc = rng.Uint64() &^ 3
	s.Scause = rng.Uint64()
	s.Stval = rng.Uint64()
	if rng.Intn(2) == 0 {
		s.Satp = rv.SatpModeSv39<<60 | rng.Uint64()&rv.Mask(44)
	}
	if c.HasSstc {
		s.Menvcfg = rng.Uint64() & (1 << 63)
		s.Stimecmp = rng.Uint64()
	}
	// Hypervisor state: randomized on H platforms, zero otherwise. The
	// write-reachable H registers carry their WARL-canonical forms; the
	// inert raw fields (hip, hgeie, henvcfg, vsie, vsip) stay fully random,
	// since runtime writes never touch them on either side.
	if c.HasH {
		s.Mtinst, s.Mtval2 = rng.Uint64(), rng.Uint64()
		s.Hstatus = rng.Uint64()&HstatusWritable | uint64(2)<<32
		s.Hgatp = rng.Uint64() &^ (uint64(0xF)<<60 | uint64(3)<<58 | 3)
		if rng.Intn(2) == 0 {
			s.Hgatp |= uint64(rv.SatpModeSv39) << 60 // Sv39x4
		}
		s.Vsstatus = rng.Uint64()&(uint64(1)<<1|1<<5|1<<8|1<<18|1<<19) | uint64(2)<<32
		s.Vsatp = rng.Uint64() &^ (uint64(0xF) << 60)
		if rng.Intn(2) == 0 {
			s.Vsatp |= uint64(rv.SatpModeSv39) << 60
		}
		s.Hedeleg = rng.Uint64() & 0xB1FF
		s.Hideleg = rng.Uint64() & rv.VSIntMask
		s.Hie = rng.Uint64() & rv.VSIntMask
		s.Hvip = rng.Uint64() & rv.VSIntMask
		s.Hgeie, s.Htval, s.Hip = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Htinst, s.Henvcfg, s.Vsie = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Vsscratch, s.Vscause, s.Vstval = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Vsip = rng.Uint64()
		s.Hcounteren = rng.Uint64() & 0xFFFF_FFFF
		s.Vstvec = rng.Uint64()&^3 | uint64(rng.Intn(2))
		s.Vsepc = rng.Uint64() &^ 3
	}
	for _, n := range c.CustomCSRs {
		s.Custom[n] = rng.Uint64()
	}

	// Virtual PMP file: random values through the legalizing setters of a
	// fresh file. The write-path legalization itself is verified
	// separately by the CSR-instruction corpus.
	f := pmp.NewFile(c.PMPCount)
	for i := 0; i < c.PMPCount; i++ {
		f.SetAddr(i, rng.Uint64())
		f.SetCfg(i, uint8(rng.Uint32()))
		s.PmpCfg[i], s.PmpAddr[i] = f.Cfg(i), f.Addr(i)
	}

	// Virtual interrupt state: software bits plus the virtual CLINT lines.
	s.MipSW = rng.Uint64() & 0x222
	if rng.Intn(2) == 0 {
		s.MipHW |= 1 << rv.IntMTimer // expired virtual mtimecmp
	}
	if rng.Intn(2) == 0 {
		s.MipHW |= 1 << rv.IntMSoft
	}
	s.Time = h.Machine.Clint.Time()
	Install(h.Mon, h.Ctx, s)
	return s
}

// Compare checks state equivalence after a transition: the monitor's view
// (View, at virtual PC vpc) against the reference state s, through
// refmodel.Diff. A free-running counter read into skipRd is adopted from
// the monitor into s rather than compared. The raw virtual mstatus is
// checked first, since View keeps only the fields the model holds: a WARL
// mask that let FS or SD through would otherwise pass.
func (h *Harness) Compare(s *refmodel.State, vpc uint64, skipRd uint32) error {
	if raw := h.Ctx.V.Mstatus; raw != s.Status.Bits() {
		return fmt.Errorf("mstatus: vfm=%#x ref=%#x", raw, s.Status.Bits())
	}
	got := View(h.Mon, h.Ctx)
	got.PC = vpc
	if skipRd != 0 {
		s.Regs[skipRd] = got.Regs[skipRd]
	}
	if ds := refmodel.Diff(h.RefCfg, got, s); len(ds) > 0 {
		return fmt.Errorf("vfm vs ref: %v", ds)
	}
	return nil
}

// CheckEmulation runs one instruction through both models from the current
// (synchronized) state and compares outcomes. The state must have been set
// up by GenState; epc is the virtual PC of the instruction.
func (h *Harness) CheckEmulation(s *refmodel.State, raw uint32, epc uint64) error {
	s.PC = epc
	refmodel.HW(h.RefCfg, s, raw)

	// A counter read returns the live clock, so Compare adopts its rd from
	// the monitor rather than comparing it.
	var skipRd uint32
	ins := refmodel.Decode(raw)
	switch ins.Op {
	case refmodel.OpCSRRS, refmodel.OpCSRRC, refmodel.OpCSRRSI,
		refmodel.OpCSRRCI, refmodel.OpCSRRW, refmodel.OpCSRRWI:
		if IsCounterCSR(ins.CSR) {
			skipRd = ins.Rd
		}
	}

	vpc := h.Mon.VerifEmulate(h.Ctx, raw, epc)
	if err := h.Compare(s, vpc, skipRd); err != nil {
		return fmt.Errorf("instr %#x (%s): %w", raw, describe(raw), err)
	}
	return nil
}

func describe(raw uint32) string {
	ins := refmodel.Decode(raw)
	switch ins.Op {
	case refmodel.OpMRET:
		return "mret"
	case refmodel.OpSRET:
		return "sret"
	case refmodel.OpWFI:
		return "wfi"
	case refmodel.OpECALL:
		return "ecall"
	case refmodel.OpEBREAK:
		return "ebreak"
	case refmodel.OpSFENCE:
		return "sfence.vma"
	case refmodel.OpFENCE:
		return "fence"
	case refmodel.OpFENCEI:
		return "fence.i"
	case refmodel.OpIllegal:
		return "illegal"
	}
	return fmt.Sprintf("csr-op f3=%d csr=%s rd=x%d rs1=x%d",
		(raw>>12)&7, rv.CSRName(ins.CSR), ins.Rd, ins.Rs1)
}

// CheckInterruptInjection compares the monitor's virtual-interrupt
// delivery decision and trap entry against the reference model's
// PendingInterrupt + TakeInterrupt from the same state. Delegated
// (supervisor) interrupts are the physical hardware's job during direct
// execution, so the monitor must leave the state untouched when the
// reference machine would deliver one.
func (h *Harness) CheckInterruptInjection(s *refmodel.State, vpc uint64) error {
	s.PC = vpc
	code := refmodel.PendingInterrupt(h.RefCfg, s)
	if code >= 0 && s.Mideleg>>code&1 == 0 {
		refmodel.TakeInterrupt(h.RefCfg, s, uint64(code))
	}
	got := h.Mon.VerifCheckVirtInterrupt(h.Ctx, vpc)
	return h.Compare(s, got, 0)
}
