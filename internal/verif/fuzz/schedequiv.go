package fuzz

import (
	"fmt"
	"math/rand"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/rv"
)

// This file implements the scheduler-equivalence mode: randomized
// multi-hart cases run twice, once under the sequential round-robin
// scheduler and once under the quantum-based parallel scheduler, and the
// two executions must agree on every architectural observable — per-hart
// cycle counters, registers, CSRs, memory, and the machine halt state.
//
// The generated system is *closed per hart* so bit-exact agreement is a
// theorem rather than a hope: each hart is confined by locked PMP entries
// to its own program and scratch windows (locked entries bind M-mode too,
// and only a full reset clears them), the CLINT is quiesced (CyclesPerTick
// is zero so mtime never moves, comparators sit at the reset "never"
// value), and the generator never touches an interrupt-pending CSR. Under
// those constraints the parallel scheduler's quantum-granular cross-hart
// visibility has nothing to reorder, so for any quantum the end state of
// RunParBudget(k) must equal k sequential machine steps exactly. Monitored
// machines are deliberately out of scope: HandleMTrap runs at barriers, so
// monitored timing is quantum-granular by design (see DESIGN.md).

// schedQuanta are the slice lengths cases cycle through; 1 maximizes
// barrier crossings, 1024 is the production default.
var schedQuanta = []uint64{1, 7, 64, 1024}

// schedHartCounts are the machine sizes cases cycle through.
var schedHartCounts = []int{2, 4}

// schedGenCSRs is the CSR surface generated programs may touch. All of it
// is hart-local plumbing; interrupt-pending and translation CSRs stay off
// the list so the closed-system invariant holds.
var schedGenCSRs = []asm.GenCSR{
	{CSR: rv.CSRMscratch, Forms: asm.FormsAll},
	{CSR: rv.CSRSscratch, Forms: asm.FormsAll},
	{CSR: rv.CSRMtvec, Forms: asm.FormsAll},
	{CSR: rv.CSRStvec, Forms: asm.FormsAll},
	{CSR: rv.CSRMepc, Forms: asm.FormsAll},
	{CSR: rv.CSRSepc, Forms: asm.FormsAll},
	{CSR: rv.CSRMcause, Forms: asm.FormsAll},
	{CSR: rv.CSRScause, Forms: asm.FormsAll},
	{CSR: rv.CSRMtval, Forms: asm.FormsAll},
	{CSR: rv.CSRStval, Forms: asm.FormsAll},
	{CSR: rv.CSRMie, Forms: asm.FormsAll},
	{CSR: rv.CSRMedeleg, Forms: asm.FormsAll},
	{CSR: rv.CSRMstatus, Forms: asm.FormsImm},
	{CSR: rv.CSRMhartid, Forms: asm.FormsRead},
}

// SchedCase is one scheduler-equivalence input: per-hart programs and
// starting states, plus the quantum the parallel side runs with.
type SchedCase struct {
	Profile string
	Harts   int
	Quantum uint64
	Progs   [][]uint32
	Init    []hartInit
}

func (tc *SchedCase) String() string {
	return fmt.Sprintf("schedcase{%s, harts=%d, quantum=%d}",
		tc.Profile, tc.Harts, tc.Quantum)
}

// SchedMismatch is one seq-vs-par divergence.
type SchedMismatch struct {
	Case *SchedCase
	Desc string
}

func (m *SchedMismatch) String() string { return m.Desc + " in " + m.Case.String() }

// SchedEquivStats summarizes a scheduler-equivalence run.
type SchedEquivStats struct {
	Cases      int
	Steps      int // sequential machine steps across all cases
	Mismatches []*SchedMismatch
}

// schedPair is one (profile, hart-count) configuration's machine duo,
// reused across cases through full machine resets — which also soak-tests
// that Reset really does return locked PMP entries and device state to
// power-on (the reset bugfix this PR carries).
type schedPair struct {
	profile  string
	harts    int
	seq, par *hart.Machine
	genCfg   asm.GenCfg
}

func newSchedPair(profile string, harts int) (*schedPair, error) {
	mk, ok := hart.Profiles()[profile]
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown profile %q", profile)
	}
	p := &schedPair{
		profile: profile,
		harts:   harts,
		genCfg: asm.GenCfg{
			Slots:      Slots,
			DataRegs:   []int{10, 11, 12, 13, 14, 15},
			BaseRegs:   []int{16, 17, 18},
			BaseWindow: 2048,
			CSRs:       schedGenCSRs,
		},
	}
	for _, dst := range []**hart.Machine{&p.seq, &p.par} {
		cfg := mk()
		cfg.Harts = harts
		// Freeze the wall clock: mtime must not depend on how steps group
		// into rounds, so it simply never advances.
		cfg.CyclesPerTick = 0
		m, err := hart.NewMachine(cfg, core.DramSize)
		if err != nil {
			return nil, err
		}
		*dst = m
	}
	p.par.Sched = hart.SchedPar
	return p, nil
}

// genSchedCase draws one case for this pair's configuration.
func (p *schedPair) genSchedCase(rng *rand.Rand, quantum uint64) *SchedCase {
	tc := &SchedCase{
		Profile: p.profile,
		Harts:   p.harts,
		Quantum: quantum,
		Progs:   make([][]uint32, p.harts),
		Init:    make([]hartInit, p.harts),
	}
	for i := 0; i < p.harts; i++ {
		tc.Progs[i] = asm.Generate(rng, &p.genCfg)
		in := &tc.Init[i]
		for r := 1; r < 32; r++ {
			in.Regs[r] = randValue(rng)
		}
		for _, r := range p.genCfg.BaseRegs {
			base := scratchBase(i) + uint64(rng.Intn(ScratchSize-4096))&^7
			if rng.Intn(6) == 0 {
				base |= uint64(rng.Intn(8))
			}
			in.Regs[r] = base
		}
		slot := func() uint64 { return progBase(i) + uint64(4*rng.Intn(Slots)) }
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
	}
	return tc
}

// install writes the case onto a machine: full reset, then each hart's
// program and scratch images and its confined starting state (startHart),
// which make each hart a closed system.
func (p *schedPair) install(m *hart.Machine, tc *SchedCase) {
	m.Reset(ProgBase)
	m.Quantum = tc.Quantum
	for i, h := range m.Harts {
		loadWindows(m, progBase(i), scratchBase(i), tc.Progs[i])
		startHart(h, &tc.Init[i], progBase(i), scratchBase(i))
	}
}

// RunSchedEquivalence fuzzes `cases` scheduler-equivalence cases per
// profile, spread across hart counts and quanta. Every case runs the
// sequential scheduler for up to StepBudget machine steps, then replays
// the identical initial state under the parallel scheduler with the same
// per-hart step budget, and compares end states bit for bit.
func RunSchedEquivalence(profiles []string, seed int64, cases int) (*SchedEquivStats, error) {
	var pairs []*schedPair
	for _, prof := range profiles {
		for _, n := range schedHartCounts {
			p, err := newSchedPair(prof, n)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, p)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	st := &SchedEquivStats{}
	for c := 0; c < cases*len(profiles); c++ {
		p := pairs[c%len(pairs)]
		tc := p.genSchedCase(rng, schedQuanta[c%len(schedQuanta)])

		p.install(p.seq, tc)
		k, _ := p.seq.Run(StepBudget)

		p.install(p.par, tc)
		p.par.RunParBudget(k)

		st.Cases++
		st.Steps += int(k)
		if desc := diffMachines("par-vs-seq", p.seq, p.par, ownWindows(p.harts)); desc != "" {
			st.Mismatches = append(st.Mismatches, &SchedMismatch{Case: tc, Desc: desc})
			if len(st.Mismatches) >= 10 {
				break
			}
		}
	}
	return st, nil
}
