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

// This file implements the superblock-equivalence mode: randomized cases
// run three times from the identical initial state —
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
// Parallel cases run one hart; sequential cases cycle through one, two and
// four harts (sbSeqHarts), where the full stack runs multi-hart rounds
// (hart.Machine's seqRound). All harts of a case share the program, the
// scratch window and the store base registers, so cross-hart stores,
// code patches and reservation kills can land inside rounds; each hart
// draws its own data registers, CSRs and timer comparator.

// sbSeqHarts are the machine sizes sequential cases cycle through.
var sbSeqHarts = []int{1, 2, 4}

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
	Harts    int
	Timer    bool     // program mtimecmp so the comparators cross mid-run
	Mtimecmp []uint64 // per-hart comparator values when Timer is set
	SMC      bool     // one base register points into the program window
	// SharedPage: one base register points at or before the program's end.
	SharedPage bool
	// Loop: the last slot jumps back to slot 0 (sbLoopBack).
	Loop bool
	Prog []uint32
	Init []schedHartInit // per hart
}

func (tc *SBCase) String() string {
	return fmt.Sprintf("sbcase{%s, sched=%v, quantum=%d, harts=%d, timer=%v, smc=%v, shared-page=%v, loop=%v}",
		tc.Profile, tc.Sched, tc.Quantum, tc.Harts, tc.Timer, tc.SMC, tc.SharedPage, tc.Loop)
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
	// dispatch or round: a run that made none never exercised chaining.
	SBChains uint64
	// MultiHart counts cases with more than one hart, and SBRounds the
	// full-stack harts' multi-hart rounds across them: a run of such cases
	// without a round never exercised the round.
	MultiHart int
	SBRounds  uint64
	// Full-stack writes into cached code pages: those that dropped live
	// code, and data writes that left it alone.
	CodeInvalidations, CodePageDataWrites uint64
	Mismatches                            []*SBMismatch
}

// sbTrio is one (profile, hart-count) machine trio, reused across cases
// through full machine resets.
type sbTrio struct {
	profile string
	harts   int
	// interp: fast path off. fast: fast path on, superblocks off.
	// full: the whole stack. interp is the architectural oracle; fast
	// isolates superblock bugs from fast-path bugs.
	interp, fast, full *hart.Machine
	genCfg             asm.GenCfg
	progZero, scrZero  []byte
}

func newSBTrio(profile string, harts int) (*sbTrio, error) {
	mk, ok := hart.Profiles()[profile]
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown profile %q", profile)
	}
	t := &sbTrio{
		profile:  profile,
		harts:    harts,
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
		cfg.Harts = harts
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
		Harts:   t.harts,
		Loop:    rng.Intn(6) == 0,
		Init:    make([]schedHartInit, t.harts),
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
	var bases [32]uint64
	for _, r := range t.genCfg.BaseRegs {
		base := ScratchBase + uint64(rng.Intn(ScratchSize-4096))&^7
		if rng.Intn(6) == 0 {
			base |= uint64(rng.Intn(8))
		}
		bases[r] = base
	}
	last := t.genCfg.BaseRegs[len(t.genCfg.BaseRegs)-1]
	switch rng.Intn(6) {
	case 0, 1:
		// Self-modifying-code case: the last base register points into the
		// program window, so generated stores overwrite live code that may
		// already be translated into a block.
		tc.SMC = true
		bases[last] = ProgBase + uint64(rng.Intn(ProgCap-2048))&^7
		if tc.Loop {
			bases[last] = ProgBase
		}
	case 2:
		// Shared-page case: the last base register points at the end of
		// the program or anywhere back to its start, on the same page.
		// Most stores through it are data stores onto the code page, which
		// must leave decodes and blocks alone; those with small offsets
		// overwrite live code.
		tc.SharedPage = true
		bases[last] = ProgBase + 4*Slots - uint64(8*rng.Intn(Slots/2+1))
	}
	// Timer case: the comparators cross somewhere inside the run, so MTIP
	// flips (and, when enabled, the interrupt preempts) mid-way. A block
	// must never retire past the crossing the interpreter would have seen
	// at its per-step latch — on any hart, whichever crosses first.
	tc.Timer = rng.Intn(2) == 0
	slot := func() uint64 { return ProgBase + uint64(4*rng.Intn(Slots)) }
	for i := range tc.Init {
		in := &tc.Init[i]
		for r := 1; r < 32; r++ {
			in.Regs[r] = randValue(rng)
		}
		for _, r := range t.genCfg.BaseRegs {
			in.Regs[r] = bases[r]
		}
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
		if tc.Timer {
			tc.Mtimecmp = append(tc.Mtimecmp, uint64(rng.Intn(48)))
		}
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

	for i, h := range m.Harts {
		in := &tc.Init[i]
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
			m.Clint.SetMtimecmp(i, tc.Mtimecmp[i])
		}
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
	if w, g := want.Clint.Time(), got.Clint.Time(); w != g {
		return fmt.Sprintf("%s mtime: want=%d got=%d", label, w, g)
	}
	for i, hW := range want.Harts {
		if d := sbCompareHart(hW, got.Harts[i]); d != "" {
			return fmt.Sprintf("%s hart%d %s", label, i, d)
		}
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

// sbCompareHart describes the first difference between two harts, or "".
func sbCompareHart(hW, hG *hart.Hart) string {
	if hW.Cycles != hG.Cycles {
		return fmt.Sprintf("cycles: want=%d got=%d", hW.Cycles, hG.Cycles)
	}
	if hW.Instret != hG.Instret || hW.SInstret != hG.SInstret {
		return fmt.Sprintf("instret: want=%d/%d got=%d/%d",
			hW.Instret, hW.SInstret, hG.Instret, hG.SInstret)
	}
	if hW.PC != hG.PC || hW.Mode != hG.Mode || hW.Waiting != hG.Waiting ||
		hW.Halted != hG.Halted {
		return fmt.Sprintf("pc/mode/wfi/halt: want=%#x/%v/%v/%v got=%#x/%v/%v/%v",
			hW.PC, hW.Mode, hW.Waiting, hW.Halted,
			hG.PC, hG.Mode, hG.Waiting, hG.Halted)
	}
	if hW.Regs != hG.Regs {
		for r := 0; r < 32; r++ {
			if hW.Regs[r] != hG.Regs[r] {
				return fmt.Sprintf("x%d: want=%#x got=%#x", r, hW.Regs[r], hG.Regs[r])
			}
		}
	}
	return csrDelta(&hW.CSR, &hG.CSR)
}

// RunSuperblockEquivalence fuzzes `cases` superblock-equivalence cases per
// profile. Every case runs the identical initial state on the interpreter,
// on the fast path without superblocks, and on the full stack, under the
// same scheduler, and compares the three end states bit for bit.
func RunSuperblockEquivalence(profiles []string, seed int64, cases int) (*SBEquivStats, error) {
	// trios[p][j] serves profile p with sbSeqHarts[j] harts.
	trios := make([][]*sbTrio, len(profiles))
	for p, prof := range profiles {
		for _, n := range sbSeqHarts {
			t, err := newSBTrio(prof, n)
			if err != nil {
				return nil, err
			}
			trios[p] = append(trios[p], t)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	st := &SBEquivStats{}
	for c := 0; c < cases*len(profiles); c++ {
		// Each profile alternates sequential cases, which cycle through
		// the hart counts, with parallel one-hart cases, which cycle
		// through the quanta.
		k := c / len(profiles)
		t := trios[c%len(profiles)][k/2%len(sbSeqHarts)]
		sched := hart.SchedSeq
		if k%2 == 1 {
			t, sched = trios[c%len(profiles)][0], hart.SchedPar
		}
		tc := t.genSBCase(rng, sched, schedQuanta[k/2%len(schedQuanta)])

		t.install(t.interp, tc)
		runSBCase(t.interp, tc)
		t.install(t.fast, tc)
		runSBCase(t.fast, tc)
		t.install(t.full, tc)
		runSBCase(t.full, tc)

		st.Cases++
		if t.harts > 1 {
			st.MultiHart++
		}
		for _, h := range t.interp.Harts {
			st.Steps += int(h.Instret)
		}

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
	// Perf counters survive Machine.Reset, so each trio's final counters
	// are already the totals across all of its cases.
	for _, ts := range trios {
		for _, t := range ts {
			for _, h := range t.full.Harts {
				p := &h.Perf
				st.SBRetired += p.SBRetired
				st.SBChains += p.SBChains
				st.SBRounds += p.SBRounds
				st.CodeInvalidations += p.CodeWriteInvalidations
				st.CodePageDataWrites += p.CodePageDataWrites
			}
		}
	}
	return st, nil
}
