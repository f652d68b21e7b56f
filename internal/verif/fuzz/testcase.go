// Package fuzz is the differential lockstep fuzzer (the dynamic complement
// to internal/verif's exhaustive checks, playing the role random testing
// plays alongside Kani in the paper's methodology, §6): randomized RV64
// programs and machine states are executed instruction-by-instruction on
// two simulated harts — a native one running bare (no monitor) and one
// virtualized under the monitor — while an independently-written reference
// model shadows both. After every retired instruction the three
// derivations of the privileged specification are compared field by field;
// any mismatch is a finding, automatically minimized and emitted as a
// self-contained reproducer.
//
// The generator is constrained so that the native and virtualized machines
// follow path-coincident executions (same instruction stream, same memory
// image): CSRs whose existence or width legitimately differs between the
// two (PMP entries past the virtual count, counter writes) are excluded or
// restricted to forms whose reachable values coincide. The constraints are
// documented inline; the per-step native-vs-virtualized diff doubles as a
// check that no constraint hole lets the paths drift silently.
package fuzz

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"govfm/internal/core"
	"govfm/internal/pmp"
	"govfm/internal/refmodel"
	"govfm/internal/rv"
	"govfm/internal/verif"
)

const (
	// ProgBase is where generated programs are loaded — the virtual
	// firmware's entry region, so the monitor treats it as vM text.
	ProgBase = core.FirmwareBase
	// ProgCap is the wiped program window; fetches beyond the generated
	// slots hit zero words (illegal instructions) symmetrically.
	ProgCap = 0x2000
	// ScratchBase/ScratchSize bound the data window load/store base
	// registers point into.
	ScratchBase = core.OSBase
	ScratchSize = 0x1_0000

	// Slots is the program length; branch targets stay on slot boundaries.
	Slots = 48
	// StepBudget bounds lockstep steps per test case.
	StepBudget = 256
)

// TestCase is one fuzz input: a platform profile, an instruction stream,
// and a starting architectural state. It serializes to JSON for corpus
// storage and reproducers.
type TestCase struct {
	Profile string          `json:"profile"`
	Prog    []uint32        `json:"prog"`
	State   *refmodel.State `json:"state"`
}

// Marshal renders the case as indented JSON.
func (tc *TestCase) Marshal() ([]byte, error) {
	return json.MarshalIndent(tc, "", " ")
}

// Clone deep-copies the case.
func (tc *TestCase) Clone() *TestCase {
	t := &TestCase{Profile: tc.Profile, Prog: append([]uint32(nil), tc.Prog...)}
	if tc.State != nil {
		t.State = tc.State.Clone()
	}
	return t
}

func legalizeTvec(v uint64) uint64 {
	mode := v & 3
	if mode > 1 {
		mode = 0
	}
	return v&^3 | mode
}

// canonicalize legalizes a test-case state in place so that it is exactly
// representable on all three derivations (native CSR file, virtual CSR
// shadow, reference state): every WARL mask is applied, fields absent from
// the platform are zeroed, and the PMP file is passed through the
// simulator's own legalizer. Install routines then copy the values
// verbatim, guaranteeing the shadows start bit-identical to the machines.
// Mutated and hand-edited cases (minimization, JSON repros) pass through
// here before every run.
func (e *Engine) canonicalize(tc *TestCase) {
	if tc.State == nil {
		tc.State = refmodel.NewState()
	}
	if len(tc.Prog) > ProgCap/4 {
		tc.Prog = tc.Prog[:ProgCap/4]
	}
	s := tc.State
	cfg := e.VirtCfg

	s.Regs[0] = 0
	switch s.Priv {
	case refmodel.U, refmodel.S, refmodel.M:
	default:
		s.Priv = refmodel.M
	}
	// Start inside the program window, 4-aligned.
	if s.PC < ProgBase || s.PC >= ProgBase+uint64(4*Slots) {
		s.PC = ProgBase + s.PC%(4*Slots)
	}
	s.PC &^= 3

	s.Status = refmodel.MstatusFromBits(s.Status.Bits())
	// mstatus.MPRV set below M-mode is architecturally unreachable (mret
	// and sret clear it on return to a lower privilege), and the monitor
	// is only required to be faithful on reachable states.
	if s.Priv != refmodel.M {
		s.Status.MPRV = false
	}

	s.Medeleg &= 0xB3FF
	s.Mideleg = 0x222 // forced delegation, matching the virtual hardware
	if cfg.HasH {
		s.Medeleg &= 0xB3FF | 1<<10 | 1<<20 | 1<<21 | 1<<22 | 1<<23
		s.Mideleg |= rv.VSIntMask // VS interrupts are hardwired-delegated
	}
	s.Mie &= 0xAAA
	// Only SSIP is generator-reachable (immediate CSR forms); richer
	// pending sets would need interrupt wiring the two machines don't
	// share.
	s.MipSW &= 1 << rv.IntSSoft
	s.MipHW = 0

	s.Mtvec = legalizeTvec(s.Mtvec)
	s.Stvec = legalizeTvec(s.Stvec)
	s.Mepc &^= 3
	s.Sepc &^= 3
	s.Mcounteren &= 0xFFFF_FFFF
	s.Scounteren &= 0xFFFF_FFFF
	// menvcfg is pinned to zero: the Sstc enable bit would make STIP a
	// function of the free-running clock, which the two machines do not
	// share.
	s.Menvcfg = 0
	s.Senvcfg &= 1
	s.Mseccfg &= 7
	s.Mcountinhibit &= 0xFFFF_FFFD
	// satp mode is pinned to Bare (translation off): the remaining bits
	// are storable data on every side.
	s.Satp &^= uint64(0xF) << 60
	if !cfg.HasSstc {
		s.Stimecmp = 0
	}
	s.Time, s.Cycle, s.Instret = 0, 0, 0
	s.WFI = false

	if cfg.HasH {
		// Mirror every hypervisor WARL mask so install routines can copy
		// the values verbatim into all three derivations.
		s.Hstatus = s.Hstatus&verif.HstatusWritable | uint64(2)<<32
		s.Hedeleg &= 0xB1FF
		s.Hideleg &= rv.VSIntMask
		s.Hie &= rv.VSIntMask
		s.Hvip &= rv.VSIntMask
		s.Hcounteren &= 0xFFFF_FFFF
		// G-stage and VS-stage translation are pinned to Bare, exactly as
		// satp is: the remaining bits are storable data on every side.
		s.Hgatp &^= uint64(0xF)<<60 | uint64(3)<<58 | 3
		s.Vsatp &^= uint64(0xF) << 60
		s.Vsstatus = s.Vsstatus & (uint64(1)<<1 | 1<<5 | 1<<8 | 1<<18 | 1<<19)
		s.Vsstatus |= uint64(2) << 32
		s.Vstvec = legalizeTvec(s.Vstvec)
		s.Vsepc &^= 3
		if s.Priv == refmodel.M {
			s.V = false
		}
	} else {
		s.Hstatus, s.Hedeleg, s.Hideleg, s.Hie, s.Hcounteren, s.Hgeie = 0, 0, 0, 0, 0, 0
		s.Htval, s.Hip, s.Hvip, s.Htinst, s.Hgatp, s.Henvcfg = 0, 0, 0, 0, 0, 0
		s.Vsstatus, s.Vsie, s.Vstvec, s.Vsscratch = 0, 0, 0, 0
		s.Vsepc, s.Vscause, s.Vstval, s.Vsip, s.Vsatp = 0, 0, 0, 0, 0
		s.Mtinst, s.Mtval2 = 0, 0
		s.Status.MPV, s.Status.GVA = false, false
		s.V = false
	}

	custom := make(map[uint16]uint64, len(cfg.CustomCSRs))
	for _, n := range cfg.CustomCSRs {
		custom[n] = s.Custom[n]
	}
	s.Custom = custom

	// Pass the PMP image through the simulator's own legalizer so stored
	// cfg bytes are exactly what a write would leave behind. Entries past
	// the virtual count do not exist on the virtualized machine and are
	// kept OFF on the native one.
	f := pmp.NewFile(cfg.PMPCount)
	for i := 0; i < cfg.PMPCount; i++ {
		f.ForceAddr(i, s.PmpAddr[i])
		f.ForceCfg(i, s.PmpCfg[i])
	}
	for i := range s.PmpCfg {
		if i < cfg.PMPCount {
			s.PmpCfg[i] = f.Cfg(i)
			s.PmpAddr[i] = f.Addr(i)
		} else {
			s.PmpCfg[i] = 0
			s.PmpAddr[i] = 0
		}
	}
}

// randValue draws an interesting 64-bit value: small integers, scratch
// pointers, aligned addresses, or full-width noise.
func randValue(rng *rand.Rand) uint64 {
	switch rng.Intn(8) {
	case 0:
		return uint64(rng.Intn(16))
	case 1:
		return ^uint64(0) - uint64(rng.Intn(8))
	case 2, 3:
		return ScratchBase + uint64(rng.Intn(ScratchSize-4096))&^7
	case 4:
		return ProgBase + uint64(4*rng.Intn(Slots))
	default:
		return rng.Uint64()
	}
}

// progSlot picks a program address on a slot boundary.
func progSlot(rng *rand.Rand) uint64 { return ProgBase + uint64(4*rng.Intn(Slots)) }

// GenCase produces a fresh random test case for this engine's profile.
func (e *Engine) GenCase(rng *rand.Rand) *TestCase {
	cfg := e.VirtCfg
	s := refmodel.NewState()

	for i := 1; i < 32; i++ {
		s.Regs[i] = randValue(rng)
	}
	// Base registers hold scratch pointers (the generator confines memory
	// operands to them); keep a margin for the 12-bit offsets, and leave
	// some bases misaligned to exercise the misaligned-access paths.
	for _, r := range e.GenCfg.BaseRegs {
		base := ScratchBase + uint64(rng.Intn(ScratchSize-4096))&^7
		if rng.Intn(6) == 0 {
			base |= uint64(rng.Intn(8))
		}
		s.Regs[r] = base
	}

	s.Priv = []uint8{refmodel.M, refmodel.M, refmodel.M, refmodel.S, refmodel.U}[rng.Intn(5)]
	if cfg.HasH && s.Priv != refmodel.M && rng.Intn(2) == 0 {
		s.V = true // start as a guest (VS or VU)
	}
	s.PC = ProgBase
	if rng.Intn(4) == 0 {
		s.PC = progSlot(rng)
	}

	mst := rng.Uint64() & (uint64(1)<<1 | 1<<3 | 1<<5 | 1<<7 | 1<<8 |
		1<<17 | 1<<18 | 1<<19 | 1<<20 | 1<<21 | 1<<22)
	mst |= []uint64{0, 1, 3}[rng.Intn(3)] << 11
	s.Status = refmodel.MstatusFromBits(mst)

	s.Medeleg = rng.Uint64()
	s.Mie = rng.Uint64()
	if rng.Intn(5) == 0 {
		s.MipSW = 1 << rv.IntSSoft
	}

	// Trap vectors and return addresses are biased into the program so
	// traps and xRET keep executing generated code.
	tvec := func() uint64 {
		if rng.Intn(5) != 0 {
			return progSlot(rng) | uint64(rng.Intn(2))
		}
		return rng.Uint64()
	}
	epc := func() uint64 {
		if rng.Intn(4) != 0 {
			return progSlot(rng)
		}
		return rng.Uint64()
	}
	s.Mtvec, s.Stvec = tvec(), tvec()
	s.Mepc, s.Sepc = epc(), epc()
	s.Mcause, s.Scause = rng.Uint64(), rng.Uint64()
	s.Mtval, s.Stval = rng.Uint64(), rng.Uint64()
	s.Mscratch, s.Sscratch = rng.Uint64(), rng.Uint64()
	s.Mcounteren, s.Scounteren = rng.Uint64(), rng.Uint64()
	s.Senvcfg = rng.Uint64()
	s.Mseccfg = rng.Uint64()
	s.Mcountinhibit = rng.Uint64()
	if rng.Intn(2) == 0 {
		s.Satp = rng.Uint64()
	}
	if cfg.HasSstc {
		s.Stimecmp = rng.Uint64()
	}
	if cfg.HasH {
		s.Hstatus, s.Hedeleg, s.Hideleg = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Hie, s.Hcounteren, s.Hgeie = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Htval, s.Hip, s.Hvip = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Htinst, s.Hgatp, s.Henvcfg = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Vsstatus, s.Vsie, s.Vstvec = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Vsscratch, s.Vsepc, s.Vscause = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Vstval, s.Vsip, s.Vsatp = rng.Uint64(), rng.Uint64(), rng.Uint64()
		s.Mtinst, s.Mtval2 = rng.Uint64(), rng.Uint64()
	}
	for _, n := range cfg.CustomCSRs {
		s.Custom[n] = rng.Uint64()
	}

	if e.HextBias && cfg.HasH {
		// Hypervisor-focused campaigns start mostly as guests, with vM kept
		// in the mix so H-CSR programming and world switches still occur.
		s.Priv = []uint8{refmodel.M, refmodel.S, refmodel.S, refmodel.S, refmodel.U}[rng.Intn(5)]
		s.V = s.Priv != refmodel.M && rng.Intn(4) != 0
		// Dense delegation masks make VS-level trap entry and virtual
		// interrupts reachable; guest vectors biased into the program keep
		// trapped guests executing generated code.
		s.Hedeleg |= rng.Uint64() & rng.Uint64()
		s.Hideleg |= rng.Uint64()
		s.Hie |= rng.Uint64()
		s.Hvip |= rng.Uint64() & rng.Uint64()
		s.Vstvec, s.Vsepc = tvec(), epc()
		if rng.Intn(2) == 0 {
			s.Hstatus |= 1 << 7 // SPV: guest-bound sret from HS
		}
	}

	// PMP: most entries biased toward the scratch window so memory
	// operations actually interact with them; the last virtual entry is
	// usually a NAPOT allow-all so sub-M execution is not starved (with
	// any entry implemented, a no-match access below M is denied).
	n := cfg.PMPCount
	for i := 0; i < n; i++ {
		var addr uint64
		switch rng.Intn(5) {
		case 0:
			addr = rng.Uint64()
		case 1:
			addr = (ProgBase + uint64(4*rng.Intn(Slots))) >> 2
		default:
			addr = (ScratchBase + uint64(rng.Intn(ScratchSize))) >> 2
			addr |= uint64(rng.Intn(64)) // NAPOT size bits
		}
		c := uint8(rng.Intn(256))
		if rng.Intn(8) != 0 {
			c &^= pmp.CfgL
		}
		s.PmpAddr[i], s.PmpCfg[i] = addr, c
	}
	if rng.Intn(8) != 0 {
		s.PmpAddr[n-1] = rv.Mask(54)
		s.PmpCfg[n-1] = pmp.CfgR | pmp.CfgW | pmp.CfgX | pmp.ANapot<<3
	}

	tc := &TestCase{
		Profile: e.Profile,
		Prog:    e.genProg(rng),
		State:   s,
	}
	e.canonicalize(tc)
	return tc
}

// Mutate derives a new case from parents in the engine's corpus style:
// rewrite a few instruction slots, splice a slot range from a second
// parent, or re-roll part of the state.
func (e *Engine) Mutate(rng *rand.Rand, parent, other *TestCase) *TestCase {
	tc := parent.Clone()
	switch rng.Intn(4) {
	case 0: // rewrite random slots
		k := 1 + rng.Intn(6)
		for j := 0; j < k; j++ {
			slot := rng.Intn(len(tc.Prog))
			tc.Prog[slot] = e.genOne(rng, slot)
		}
	case 1: // splice a slot range from another corpus entry
		if other != nil && len(other.Prog) == len(tc.Prog) {
			lo := rng.Intn(len(tc.Prog))
			hi := lo + 1 + rng.Intn(len(tc.Prog)-lo)
			copy(tc.Prog[lo:hi], other.Prog[lo:hi])
			break
		}
		fallthrough
	case 2: // perturb the state
		fresh := e.GenCase(rng).State
		s := tc.State
		for j := 1 + rng.Intn(3); j > 0; j-- {
			switch rng.Intn(10) {
			case 0:
				i := 1 + rng.Intn(31)
				s.Regs[i] = fresh.Regs[i]
			case 1:
				s.Status = fresh.Status
				s.Priv = fresh.Priv
			case 2:
				s.Mie, s.Medeleg = fresh.Mie, fresh.Medeleg
			case 3:
				s.Mtvec, s.Stvec = fresh.Mtvec, fresh.Stvec
			case 4:
				s.Mepc, s.Sepc = fresh.Mepc, fresh.Sepc
			case 5:
				i := rng.Intn(e.VirtCfg.PMPCount)
				s.PmpCfg[i], s.PmpAddr[i] = fresh.PmpCfg[i], fresh.PmpAddr[i]
			case 6:
				s.MipSW = fresh.MipSW
			case 7:
				s.Satp, s.Mseccfg = fresh.Satp, fresh.Mseccfg
			case 8:
				s.Mcounteren, s.Scounteren = fresh.Mcounteren, fresh.Scounteren
			default:
				s.PC = fresh.PC
			}
		}
	default: // fresh program over the same state
		tc.Prog = e.genProg(rng)
	}
	e.canonicalize(tc)
	return tc
}

func (tc *TestCase) String() string {
	return fmt.Sprintf("case{%s, %d slots, priv=%d, pc=%#x}",
		tc.Profile, len(tc.Prog), tc.State.Priv, tc.State.PC)
}
