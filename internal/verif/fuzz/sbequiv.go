package fuzz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// This file implements the superblock-equivalence mode: randomized
// single-hart cases run three times from the identical initial state —
// once on the plain interpreter (fast path off), once with the host fast
// path on but the superblock tier off, and once with the full stack — and
// all three executions must agree on every architectural observable,
// including the cycle and instret counters bit for bit.
//
// Unlike the scheduler-equivalence mode, the wall clock here is LIVE: the
// profile's CyclesPerTick stands, and roughly half the cases program a
// nearby mtimecmp so the comparator crosses mid-run. That is deliberate —
// the superblock tier's cycle-budget headroom (machine.go,
// sbSeqHeadroom) exists precisely so a block never retires an instruction
// the interpreter would have preempted with a timer interrupt, and only a
// moving clock can falsify it. A slice of cases also aims a store base
// register at the hart's own program window, so generated stores
// self-modify code under translated blocks, and a shared-page slice aims
// it at or before the program's end, so stores write data beside live
// code on its page (and sometimes the code itself); others reach the PMP config
// CSRs, so pmpEpoch guard misses occur organically. The generated
// programs already carry sfence.vma, fence.i, wfi, and world switches
// (asm.genPriv), all of which must end or invalidate blocks correctly.
//
// Cases alternate between the sequential and the parallel scheduler, but
// all three machines of a case always run under the SAME scheduler — this
// gate isolates the execution tier, schedequiv.go isolates the scheduler.

// sbStepBudget is the per-case step budget. It is deliberately larger
// than the fuzzer's StepBudget so generated loops cross the translation
// heat threshold and actually execute inside blocks.
const sbStepBudget = 1024

// sbGenCSRs extends the scheduler-equivalence CSR surface with the PMP
// configuration CSRs. Entries 0..2 are locked by install (writes to them
// are ignored), and every address matches one of them, so writes to the
// unlocked entries 3+ are architecturally inert — but they bump the PMP
// epoch, forcing superblock entry-guard misses mid-program.
var sbGenCSRs = append(append([]asm.GenCSR{}, schedGenCSRs...),
	asm.GenCSR{CSR: rv.CSRPmpcfg0, Forms: asm.FormsAll},
	asm.GenCSR{CSR: rv.CSRPmpaddr0 + 5, Forms: asm.FormsAll},
)

// SBCase is one superblock-equivalence input.
type SBCase struct {
	Profile  string
	Sched    hart.SchedKind
	Quantum  uint64
	Timer    bool   // program mtimecmp so the comparator crosses mid-run
	Mtimecmp uint64 // comparator value when Timer is set
	SMC      bool   // one base register points into the program window
	// SharedPage: one base register points at or before the program's end.
	SharedPage bool
	// Loop: the last slot jumps back to slot 0 (sbLoopBack).
	Loop bool
	Prog []uint32
	Init schedHartInit
}

func (tc *SBCase) String() string {
	return fmt.Sprintf("sbcase{%s, sched=%v, quantum=%d, timer=%v, smc=%v, shared-page=%v, loop=%v}",
		tc.Profile, tc.Sched, tc.Quantum, tc.Timer, tc.SMC, tc.SharedPage, tc.Loop)
}

// sbLoopBack is "jal x0, slot 0" encoded for the program's last slot.
var sbLoopBack = func() uint32 {
	a := asm.New(ProgBase)
	a.Label("top")
	for i := 0; i < Slots-1; i++ {
		a.Nop()
	}
	a.J("top")
	return binary.LittleEndian.Uint32(a.MustAssemble()[4*(Slots-1):])
}()

// SBMismatch is one tier divergence.
type SBMismatch struct {
	Case *SBCase
	Desc string
}

func (m *SBMismatch) String() string { return m.Desc + " in " + m.Case.String() }

// SBEquivStats summarizes a superblock-equivalence run.
type SBEquivStats struct {
	Cases     int
	Steps     int // interpreter machine steps across all cases
	SBRetired uint64
	// SBChains counts full-stack block-to-block transfers within one
	// dispatch: a run that made none never exercised chaining.
	SBChains uint64
	// Full-stack writes into cached code pages: those that dropped live
	// code, and data writes that left it alone.
	CodeInvalidations, CodePageDataWrites uint64
	Mismatches                            []*SBMismatch
}

// sbTrio is one profile's machine trio, reused across cases through full
// machine resets. All three are single-hart so the sequential scheduler's
// superblock arming is eligible.
type sbTrio struct {
	profile string
	// interp: fast path off. fast: fast path on, superblocks off.
	// full: the whole stack. interp is the architectural oracle; fast
	// isolates superblock bugs from fast-path bugs.
	interp, fast, full *hart.Machine
	genCfg             asm.GenCfg
	progZero, scrZero  []byte
}

func newSBTrio(profile string) (*sbTrio, error) {
	mk, ok := hart.Profiles()[profile]
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown profile %q", profile)
	}
	t := &sbTrio{
		profile:  profile,
		progZero: make([]byte, ProgCap),
		scrZero:  make([]byte, ScratchSize),
		genCfg: asm.GenCfg{
			Slots:      Slots,
			DataRegs:   []int{10, 11, 12, 13, 14, 15},
			BaseRegs:   []int{16, 17, 18},
			BaseWindow: 2048,
			CSRs:       sbGenCSRs,
		},
	}
	for _, dst := range []**hart.Machine{&t.interp, &t.fast, &t.full} {
		cfg := mk()
		cfg.Harts = 1
		m, err := hart.NewMachine(cfg, core.DramSize)
		if err != nil {
			return nil, err
		}
		*dst = m
	}
	t.interp.SetFastPath(false)
	t.interp.SetSuperblock(false)
	t.fast.SetFastPath(true)
	t.fast.SetSuperblock(false)
	t.full.SetFastPath(true)
	t.full.SetSuperblock(true)
	return t, nil
}

// genSBCase draws one case.
func (t *sbTrio) genSBCase(rng *rand.Rand, sched hart.SchedKind, quantum uint64) *SBCase {
	tc := &SBCase{
		Profile: t.profile,
		Sched:   sched,
		Quantum: quantum,
		Loop:    rng.Intn(6) == 0,
	}
	cfg := t.genCfg
	if tc.Loop {
		// Loop case: the last slot jumps back to slot 0, so the program
		// runs round and round and chains re-enter translated blocks.
		// Offsets stay within one program length of their base, so an SMC
		// case's stores overwrite code that runs again.
		cfg.BaseWindow = 4 * Slots
	}
	tc.Prog = asm.Generate(rng, &cfg)
	if tc.Loop {
		tc.Prog[Slots-1] = sbLoopBack
	}
	in := &tc.Init
	for r := 1; r < 32; r++ {
		in.Regs[r] = randValue(rng)
	}
	for _, r := range t.genCfg.BaseRegs {
		base := ScratchBase + uint64(rng.Intn(ScratchSize-4096))&^7
		if rng.Intn(6) == 0 {
			base |= uint64(rng.Intn(8))
		}
		in.Regs[r] = base
	}
	last := t.genCfg.BaseRegs[len(t.genCfg.BaseRegs)-1]
	switch rng.Intn(6) {
	case 0, 1:
		// Self-modifying-code case: the last base register points into the
		// program window, so generated stores overwrite live code that may
		// already be translated into a block.
		tc.SMC = true
		in.Regs[last] = ProgBase + uint64(rng.Intn(ProgCap-2048))&^7
		if tc.Loop {
			in.Regs[last] = ProgBase
		}
	case 2:
		// Shared-page case: the last base register points at the end of
		// the program or anywhere back to its start, on the same page.
		// Most stores through it are data stores onto the code page, which
		// must leave decodes and blocks alone; those with small offsets
		// overwrite live code.
		tc.SharedPage = true
		in.Regs[last] = ProgBase + 4*Slots - uint64(8*rng.Intn(Slots/2+1))
	}
	slot := func() uint64 { return ProgBase + uint64(4*rng.Intn(Slots)) }
	in.Mtvec = slot() | uint64(rng.Intn(2))
	in.Stvec = slot() | uint64(rng.Intn(2))
	in.Mepc, in.Sepc = slot(), slot()
	in.Mstatus = rng.Uint64()&(uint64(1)<<1|1<<3|1<<5|1<<7|1<<8) |
		[]uint64{0, 1, 3}[rng.Intn(3)]<<11
	in.Mie = rng.Uint64() & 0xAAA
	in.Medeleg = rng.Uint64() & 0xB3FF
	in.Mscratch, in.Sscratch = rng.Uint64(), rng.Uint64()
	in.Mcause, in.Scause = rng.Uint64(), rng.Uint64()
	in.Mtval, in.Stval = rng.Uint64(), rng.Uint64()
	if rng.Intn(2) == 0 {
		// Timer case: the comparator crosses somewhere inside the run, so
		// MTIP flips (and, when enabled, the interrupt preempts) mid-way.
		// A block must never retire past the crossing the interpreter
		// would have seen at its per-step latch.
		tc.Timer = true
		tc.Mtimecmp = uint64(rng.Intn(48))
	}
	return tc
}

// install writes the case onto a machine: full reset, program and scratch
// images, starting state, and the same locked-PMP confinement the
// scheduler-equivalence mode uses (program and scratch windows granted,
// locked deny-all underneath).
func (t *sbTrio) install(m *hart.Machine, tc *SBCase) {
	m.Reset(ProgBase)
	m.Sched = tc.Sched
	m.Quantum = tc.Quantum
	prog := make([]byte, 4*len(tc.Prog))
	for j, w := range tc.Prog {
		binary.LittleEndian.PutUint32(prog[4*j:], w)
	}
	m.LoadImage(ProgBase, t.progZero)
	m.LoadImage(ScratchBase, t.scrZero)
	m.LoadImage(ProgBase, prog)

	h := m.Harts[0]
	in := &tc.Init
	h.Regs = in.Regs
	h.Regs[0] = 0
	h.PC = ProgBase
	h.Mode = rv.ModeM
	c := &h.CSR
	c.WriteMstatus(in.Mstatus)
	c.Mie = in.Mie
	c.Medeleg = in.Medeleg
	c.Mtvec, c.Stvec = in.Mtvec, in.Stvec
	c.Mepc, c.Sepc = in.Mepc, in.Sepc
	c.Mscratch, c.Sscratch = in.Mscratch, in.Sscratch
	c.Mcause, c.Scause = in.Mcause, in.Scause
	c.Mtval, c.Stval = in.Mtval, in.Stval

	f := c.PMP
	rwxNapot := uint8(pmp.CfgL | pmp.CfgR | pmp.CfgW | pmp.CfgX | pmp.ANapot<<3)
	f.ForceAddr(0, napotAddr(ProgBase, ProgCap))
	f.ForceCfg(0, rwxNapot)
	f.ForceAddr(1, napotAddr(ScratchBase, ScratchSize))
	f.ForceCfg(1, rwxNapot)
	f.ForceAddr(2, rv.Mask(54))
	f.ForceCfg(2, pmp.CfgL|pmp.ANapot<<3)

	if tc.Timer {
		m.Clint.SetMtimecmp(0, tc.Mtimecmp)
	}
}

// runSBCase executes one installed machine for the case's budget under the
// case's scheduler.
func runSBCase(m *hart.Machine, tc *SBCase) {
	if tc.Sched == hart.SchedPar {
		m.RunParBudget(sbStepBudget)
	} else {
		m.Run(sbStepBudget)
	}
}

// sbCompare checks every observable of a finished machine pair and returns
// a description of the first divergence, or "". want is the oracle.
func sbCompare(label string, want, got *hart.Machine) string {
	wh, wr := want.Halted()
	gh, gr := got.Halted()
	if wh != gh || wr != gr {
		return fmt.Sprintf("%s machine halt: want=%v/%q got=%v/%q", label, wh, wr, gh, gr)
	}
	hW, hG := want.Harts[0], got.Harts[0]
	if hW.Cycles != hG.Cycles {
		return fmt.Sprintf("%s cycles: want=%d got=%d", label, hW.Cycles, hG.Cycles)
	}
	if hW.Instret != hG.Instret || hW.SInstret != hG.SInstret {
		return fmt.Sprintf("%s instret: want=%d/%d got=%d/%d",
			label, hW.Instret, hW.SInstret, hG.Instret, hG.SInstret)
	}
	if hW.PC != hG.PC || hW.Mode != hG.Mode || hW.Waiting != hG.Waiting ||
		hW.Halted != hG.Halted {
		return fmt.Sprintf("%s pc/mode/wfi/halt: want=%#x/%v/%v/%v got=%#x/%v/%v/%v",
			label, hW.PC, hW.Mode, hW.Waiting, hW.Halted,
			hG.PC, hG.Mode, hG.Waiting, hG.Halted)
	}
	if hW.Regs != hG.Regs {
		for r := 0; r < 32; r++ {
			if hW.Regs[r] != hG.Regs[r] {
				return fmt.Sprintf("%s x%d: want=%#x got=%#x", label, r, hW.Regs[r], hG.Regs[r])
			}
		}
	}
	if d := csrDelta(&hW.CSR, &hG.CSR); d != "" {
		return fmt.Sprintf("%s %s", label, d)
	}
	for _, r := range [][2]uint64{{ProgBase, ProgCap}, {ScratchBase, ScratchSize}} {
		bW, err1 := want.Bus.ReadBytes(r[0], int(r[1]))
		bG, err2 := got.Bus.ReadBytes(r[0], int(r[1]))
		if err1 != nil || err2 != nil || !bytes.Equal(bW, bG) {
			return fmt.Sprintf("%s memory at %#x differs", label, r[0])
		}
	}
	return ""
}

// RunSuperblockEquivalence fuzzes `cases` superblock-equivalence cases per
// profile. Every case runs the identical initial state on the interpreter,
// on the fast path without superblocks, and on the full stack, under the
// same scheduler, and compares the three end states bit for bit.
func RunSuperblockEquivalence(profiles []string, seed int64, cases int) (*SBEquivStats, error) {
	var trios []*sbTrio
	for _, prof := range profiles {
		t, err := newSBTrio(prof)
		if err != nil {
			return nil, err
		}
		trios = append(trios, t)
	}
	rng := rand.New(rand.NewSource(seed))
	st := &SBEquivStats{}
	for c := 0; c < cases*len(profiles); c++ {
		t := trios[c%len(trios)]
		sched := hart.SchedSeq
		if c%2 == 1 {
			sched = hart.SchedPar
		}
		tc := t.genSBCase(rng, sched, schedQuanta[c%len(schedQuanta)])

		t.install(t.interp, tc)
		runSBCase(t.interp, tc)
		t.install(t.fast, tc)
		runSBCase(t.fast, tc)
		t.install(t.full, tc)
		runSBCase(t.full, tc)

		st.Cases++
		st.Steps += int(t.interp.Harts[0].Instret)

		desc := sbCompare("full-vs-interp", t.interp, t.full)
		if desc == "" {
			desc = sbCompare("full-vs-fast", t.fast, t.full)
		}
		if desc != "" {
			st.Mismatches = append(st.Mismatches, &SBMismatch{Case: tc, Desc: desc})
			if len(st.Mismatches) >= 10 {
				break
			}
		}
	}
	// Perf counters survive Machine.Reset, so each trio's final counter is
	// already the total across all of its cases.
	for _, t := range trios {
		p := &t.full.Harts[0].Perf
		st.SBRetired += p.SBRetired
		st.SBChains += p.SBChains
		st.CodeInvalidations += p.CodeWriteInvalidations
		st.CodePageDataWrites += p.CodePageDataWrites
	}
	return st, nil
}
