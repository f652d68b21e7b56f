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

// This file implements the machine-equivalence harness. Each randomized
// case runs from one initial state on five machines: the interpreter (fast
// path off, the oracle), the fast path without superblocks, the full stack
// with superblocks, and a parent on a swept tier that forks mid-run, plus
// the child spawned from that fork. Every run must end bit-identical to
// the interpreter's (diffMachines): registers, CSRs, memory, mtime, the
// UART transcript and the cycle and instret counters.
//
// The wall clock here is LIVE: the profile's CyclesPerTick stands, and
// roughly half the cases program a nearby mtimecmp so the comparator
// crosses mid-run. That is deliberate — the superblock tier's cycle-budget
// headroom (machine.go, sbSeqHeadroom) exists precisely so a block never
// retires an instruction the interpreter would have preempted with a timer
// interrupt, and only a moving clock can falsify it; a fork must carry the
// mtime remainder exactly. A slice of cases also aims a store base
// register at the hart's own program window, so generated stores
// self-modify code under translated blocks, and a shared-page slice aims
// it at or before the program's end, so stores write data beside live
// code on its page (and sometimes the code itself); others reach the PMP
// config CSRs, so PMP-view guard misses occur organically. The generated
// programs already carry sfence.vma, fence.i, wfi, and world switches
// (asm.genPriv), all of which must end or invalidate blocks correctly.
//
// Each profile's rigs cover one, two and four harts (machHartCounts); on
// two or four the full stack runs multi-hart rounds (hart.Machine's
// seqRound). All harts of a case share the program, the scratch window and
// the store base registers, so cross-hart stores, code patches and
// reservation kills can land inside rounds; each hart draws its own data
// registers, CSRs and timer comparator.

// machHartCounts are the machine sizes each profile's rigs cover.
var machHartCounts = []int{1, 2, 4}

// machStepBudget is a case's whole trajectory, K1 steps before the fork
// point and K2 after it. It is deliberately larger than the lockstep
// fuzzer's StepBudget so generated loops cross the translation heat
// threshold and actually execute inside blocks.
const machStepBudget = 1024

// tierNames name the execution tiers a forked machine runs on, by index:
// the interpreter, the fast path, and the fast path with superblocks.
var tierNames = []string{"interp", "fast", "fast+sb"}

// sbGenCSRs extends the closed CSR surface with the PMP configuration
// CSRs. Entries 0..2 are locked by install (writes to them
// are ignored), and every address matches one of them, so writes to the
// unlocked entries 3+ are architecturally inert — but a write of a new
// value moves the file to a new PMP view, forcing superblock entry-guard
// misses mid-program, and a write back lands on a view seen before.
var sbGenCSRs = append(slices.Clone(closedGenCSRs),
	asm.GenCSR{CSR: rv.CSRPmpcfg0, Forms: asm.FormsAll},
	asm.GenCSR{CSR: rv.CSRPmpaddr0 + 5, Forms: asm.FormsAll},
)

// machCase is one machine-equivalence input.
type machCase struct {
	Profile  string
	Harts    int
	Timer    bool     // program mtimecmp so the comparators cross mid-run
	Mtimecmp []uint64 // per-hart comparator values when Timer is set
	SMC      bool     // one base register points into the program window
	// SharedPage: one base register points at or before the program's end.
	SharedPage bool
	// Loop: the last slot jumps back to slot 0 (sbLoopBack).
	Loop bool
	K1   uint64 // steps before the fork; K2 = machStepBudget - K1
	Tier int    // the forked machine's tier, an index into tierNames
	Prog []uint32
	Init []hartInit // per hart
}

func (tc *machCase) String() string {
	return fmt.Sprintf("case{%s, harts=%d, fork=%s@%d, timer=%v, smc=%v, shared-page=%v, loop=%v}",
		tc.Profile, tc.Harts, tierNames[tc.Tier], tc.K1, tc.Timer, tc.SMC, tc.SharedPage, tc.Loop)
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

// MachineStats summarizes a machine-equivalence run.
type MachineStats struct {
	Cases     int
	MultiHart int // cases with more than one hart
	Steps     int // interpreter steps across all cases
	// The counters below sum over every machine but the interpreter, each
	// compared with it. SBChains counts block-to-block transfers within
	// one dispatch or round, SBRounds multi-hart rounds: a run without
	// either never exercised it.
	SBRetired, SBChains, SBRounds uint64
	// Writes into cached code pages: those that dropped live code, and
	// data writes that left it alone.
	CodeInvalidations, CodePageDataWrites uint64
	// COWBreaks counts the pages the forked parent and the child copied
	// off the fork image during their K2 legs.
	COWBreaks uint64
	// Mismatches describes each divergence and its case.
	Mismatches []string
}

// machRig is one (profile, hart-count) configuration's machines, reused
// across cases through full resets. interp, fast and sb run the tiers
// fixed; parent takes each case's fork tier, and child is re-imaged from
// the parent's fork every case via LoadImageState — deliberately
// exercising machine reuse (one long-lived machine, many images).
type machRig struct {
	profile                         string
	harts                           int
	interp, fast, sb, parent, child *hart.Machine
	genCfg                          asm.GenCfg
}

func newMachRig(profile string, harts int) (*machRig, error) {
	mk, ok := hart.Profiles()[profile]
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown profile %q", profile)
	}
	rig := &machRig{
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
	for _, dst := range []**hart.Machine{&rig.interp, &rig.fast, &rig.sb, &rig.parent, &rig.child} {
		cfg := mk()
		cfg.Harts = harts
		m, err := hart.NewMachine(cfg, core.DramSize)
		if err != nil {
			return nil, err
		}
		*dst = m
	}
	setTier(rig.interp, 0)
	setTier(rig.fast, 1)
	setTier(rig.sb, 2)
	return rig, nil
}

// setTier puts m on tier t, an index into tierNames.
func setTier(m *hart.Machine, t int) {
	m.SetFastPath(t > 0)
	m.SetSuperblock(t == 2)
}

// genCase draws one case whose forked machine runs on tier t.
func (rig *machRig) genCase(rng *rand.Rand, t int) *machCase {
	tc := &machCase{
		Profile: rig.profile,
		Harts:   rig.harts,
		Loop:    rng.Intn(6) == 0,
		K1:      uint64(16 + rng.Intn(machStepBudget/2)),
		Tier:    t,
		Init:    make([]hartInit, rig.harts),
	}
	cfg := rig.genCfg
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
	for _, r := range rig.genCfg.BaseRegs {
		base := ScratchBase + uint64(rng.Intn(ScratchSize-4096))&^7
		if rng.Intn(6) == 0 {
			base |= uint64(rng.Intn(8))
		}
		bases[r] = base
	}
	last := rig.genCfg.BaseRegs[len(rig.genCfg.BaseRegs)-1]
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
		for _, r := range rig.genCfg.BaseRegs {
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
// scratch images all harts share, and each hart's starting state and
// locked-PMP confinement (startHart).
func (rig *machRig) install(m *hart.Machine, tc *machCase) {
	m.Reset(ProgBase)
	loadWindows(m, tc.Prog)
	for i, h := range m.Harts {
		startHart(h, &tc.Init[i])
		if tc.Timer {
			m.Clint.SetMtimecmp(i, tc.Mtimecmp[i])
		}
	}
}

// run executes one case on every machine of the rig, adds its post-fork
// COW breaks to st, and describes the first divergence from the
// interpreter, or returns "".
func (rig *machRig) run(tc *machCase, st *MachineStats) (string, error) {
	k2 := machStepBudget - tc.K1
	for _, m := range []*hart.Machine{rig.interp, rig.fast, rig.sb} {
		rig.install(m, tc)
		m.Run(tc.K1)
		m.Run(k2)
	}

	p := rig.parent
	rig.install(p, tc)
	setTier(p, tc.Tier)
	p.Run(tc.K1)
	img, err := p.Snapshot()
	if err != nil {
		return "", fmt.Errorf("fuzz: snapshot of %v: %w", tc, err)
	}
	// The parent runs on before the child starts: if the snapshot left
	// the image's pages writable in place, the parent's K2 writes land in
	// the image and the child starts from them.
	cow := p.Bus.COWCopies()
	p.Run(k2)
	st.COWBreaks += p.Bus.COWCopies() - cow
	if err := rig.child.LoadImageState(img); err != nil {
		return "", fmt.Errorf("fuzz: spawn of %v: %w", tc, err)
	}
	cow = rig.child.Bus.COWCopies()
	rig.child.Run(k2)
	st.COWBreaks += rig.child.Bus.COWCopies() - cow

	for _, v := range []struct {
		label string
		m     *hart.Machine
	}{{"fast", rig.fast}, {"sb", rig.sb}, {"fork-parent", p}, {"fork-child", rig.child}} {
		if d := diffMachines(v.label+"-vs-interp", rig.interp, v.m); d != "" {
			return d, nil
		}
	}
	return "", nil
}

// forkSweep maps case c to its rig index and its forked machine's tier,
// given nrigs rigs (profile × hart count). Every 3*nrigs consecutive cases
// cover each rig × tier cell exactly once.
func forkSweep(c, nrigs int) (rig, tier int) {
	return c % nrigs, (c / nrigs) % len(tierNames)
}

// RunMachineEquiv fuzzes `cases` machine-equivalence cases per profile,
// swept across hart count × fork tier (forkSweep). Every case runs on the
// interpreter, the fast path and the superblock tier, and on a parent that
// forks it after K1 steps and a child spawned from that fork, and each
// run's end state must match the interpreter's bit for bit.
func RunMachineEquiv(profiles []string, seed int64, cases int) (*MachineStats, error) {
	var rigs []*machRig
	for _, prof := range profiles {
		for _, n := range machHartCounts {
			rig, err := newMachRig(prof, n)
			if err != nil {
				return nil, err
			}
			rigs = append(rigs, rig)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	st := &MachineStats{}
	for c := 0; c < cases*len(profiles); c++ {
		r, t := forkSweep(c, len(rigs))
		rig := rigs[r]
		tc := rig.genCase(rng, t)
		desc, err := rig.run(tc, st)
		if err != nil {
			return nil, err
		}
		st.Cases++
		if rig.harts > 1 {
			st.MultiHart++
		}
		for _, h := range rig.interp.Harts {
			st.Steps += int(h.Instret)
		}
		if desc != "" {
			st.Mismatches = append(st.Mismatches, desc+" in "+tc.String())
			if len(st.Mismatches) >= 10 {
				break
			}
		}
	}
	// Perf counters survive Machine.Reset, so each machine's final
	// counters are already the totals across all of its cases.
	for _, rig := range rigs {
		for _, m := range []*hart.Machine{rig.fast, rig.sb, rig.parent, rig.child} {
			for _, h := range m.Harts {
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
