package fuzz

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/rv"
)

// This file implements the superblock-equivalence mode: randomized cases
// run three times from the identical initial state —
// once on the plain interpreter (fast path off), once with the host fast
// path on but the superblock tier off, and once with the full stack — and
// all three executions must agree on every architectural observable,
// including the cycle and instret counters bit for bit.
//
// The wall clock here is LIVE: the profile's CyclesPerTick stands, and
// roughly half the cases program a nearby mtimecmp so the comparator
// crosses mid-run. That is deliberate —
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
// Each profile's cases cycle through one, two and four harts (sbHartCounts);
// on two or four the full stack runs multi-hart rounds (hart.Machine's
// seqRound). All harts of a case share the program, the scratch window and
// the store base registers, so cross-hart stores, code patches and
// reservation kills can land inside rounds; each hart draws its own data
// registers, CSRs and timer comparator.

// sbHartCounts are the machine sizes cases cycle through.
var sbHartCounts = []int{1, 2, 4}

// sbStepBudget is the per-case step budget. It is deliberately larger
// than the fuzzer's StepBudget so generated loops cross the translation
// heat threshold and actually execute inside blocks.
const sbStepBudget = 1024

// sbGenCSRs extends the closed CSR surface with the PMP configuration
// CSRs. Entries 0..2 are locked by install (writes to them
// are ignored), and every address matches one of them, so writes to the
// unlocked entries 3+ are architecturally inert — but they bump the PMP
// epoch, forcing superblock entry-guard misses mid-program.
var sbGenCSRs = append(slices.Clone(closedGenCSRs),
	asm.GenCSR{CSR: rv.CSRPmpcfg0, Forms: asm.FormsAll},
	asm.GenCSR{CSR: rv.CSRPmpaddr0 + 5, Forms: asm.FormsAll},
)

// SBCase is one superblock-equivalence input.
type SBCase struct {
	Profile  string
	Harts    int
	Timer    bool     // program mtimecmp so the comparators cross mid-run
	Mtimecmp []uint64 // per-hart comparator values when Timer is set
	SMC      bool     // one base register points into the program window
	// SharedPage: one base register points at or before the program's end.
	SharedPage bool
	// Loop: the last slot jumps back to slot 0 (sbLoopBack).
	Loop bool
	Prog []uint32
	Init []hartInit // per hart
}

func (tc *SBCase) String() string {
	return fmt.Sprintf("sbcase{%s, harts=%d, timer=%v, smc=%v, shared-page=%v, loop=%v}",
		tc.Profile, tc.Harts, tc.Timer, tc.SMC, tc.SharedPage, tc.Loop)
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
}

func newSBTrio(profile string, harts int) (*sbTrio, error) {
	mk, ok := hart.Profiles()[profile]
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown profile %q", profile)
	}
	t := &sbTrio{
		profile: profile,
		harts:   harts,
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
func (t *sbTrio) genSBCase(rng *rand.Rand) *SBCase {
	tc := &SBCase{
		Profile: t.profile,
		Harts:   t.harts,
		Loop:    rng.Intn(6) == 0,
		Init:    make([]hartInit, t.harts),
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

// install writes the case onto a machine: full reset, the program and
// scratch images all harts share, and each hart's starting state with the
// same locked-PMP confinement the fork gate uses (startHart).
func (t *sbTrio) install(m *hart.Machine, tc *SBCase) {
	m.Reset(ProgBase)
	loadWindows(m, ProgBase, ScratchBase, tc.Prog)
	for i, h := range m.Harts {
		startHart(h, &tc.Init[i], ProgBase, ScratchBase)
		if tc.Timer {
			m.Clint.SetMtimecmp(i, tc.Mtimecmp[i])
		}
	}
}

// sbWindows are the program and scratch windows every hart shares.
var sbWindows = [][2]uint64{{ProgBase, ProgCap}, {ScratchBase, ScratchSize}}

// RunSuperblockEquivalence fuzzes `cases` superblock-equivalence cases per
// profile. Every case runs the identical initial state on the interpreter,
// on the fast path without superblocks, and on the full stack, and
// compares the three end states bit for bit.
func RunSuperblockEquivalence(profiles []string, seed int64, cases int) (*SBEquivStats, error) {
	// trios[p][j] serves profile p with sbHartCounts[j] harts.
	trios := make([][]*sbTrio, len(profiles))
	for p, prof := range profiles {
		for _, n := range sbHartCounts {
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
		// Each profile's cases cycle through the hart counts.
		t := trios[c%len(profiles)][c/len(profiles)%len(sbHartCounts)]
		tc := t.genSBCase(rng)
		for _, m := range []*hart.Machine{t.interp, t.fast, t.full} {
			t.install(m, tc)
			m.Run(sbStepBudget)
		}

		st.Cases++
		if t.harts > 1 {
			st.MultiHart++
		}
		for _, h := range t.interp.Harts {
			st.Steps += int(h.Instret)
		}

		desc := diffMachines("full-vs-interp", t.interp, t.full, sbWindows)
		if desc == "" {
			desc = diffMachines("full-vs-fast", t.fast, t.full, sbWindows)
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
