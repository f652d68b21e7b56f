package fuzz

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/mem"
	"govfm/internal/mmu"
	"govfm/internal/pmp"
	"govfm/internal/refmodel"
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
// mtime remainder exactly. Three quarters of the timer cases try to aim
// the comparator at a tick that crosses in hot code with the interrupt
// enabled (aimTimer), and about two in five find one: there blocks run,
// and a crossing they overran would be taken late. A slice of cases also
// aims a store base register at the hart's own program window, so
// generated stores self-modify code under translated blocks, and a
// shared-page slice aims it at or before the program's end, so stores
// write data beside live code on its page (and sometimes the code itself);
// others reach the PMP config CSRs, so PMP-view guard misses occur
// organically. A late-code
// slice writes a stub onto a line of the code page that holds no code,
// calls it, rewrites it and calls it again, so code appears where a host
// store was just allowed to write in place, and in looping cases a block
// translated from the stub is patched under it. A relink slice runs a
// two-block loop until each block links the other, then rewrites the
// second block only, so a chain from the first must not follow its link.
// The generated programs already carry sfence.vma, fence.i, wfi, and world
// switches (asm.genPriv), all of which must end or invalidate blocks
// correctly.
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
// CSRs. In most cases entries 0..2 are locked by install (writes to them
// are ignored), and every address matches one of them, so writes to the
// unlocked entries 3+ are architecturally inert — but a write of a new
// value moves the file to a new PMP view, forcing superblock entry-guard
// misses mid-program, and a write back lands on a view seen before.
var sbGenCSRs = append(slices.Clone(closedGenCSRs),
	asm.GenCSR{CSR: rv.CSRPmpcfg0, Forms: asm.FormsAll},
	asm.GenCSR{CSR: rv.CSRPmpaddr0 + 5, Forms: asm.FormsAll},
)

// remapRegs hold the leaf PTEs a remap case's prelude stores: data
// registers, which the prelude reads before any generated op writes them.
var remapRegs = []int{14, 15}

// churnRegs hold a churn case's pmpaddr0 values. No generated instruction
// but a random word writes them.
var churnRegs = []int{19, 20, 21}

// lateRegs hold a late-code case's stub address, the stub's first word,
// the two encodings of its second and the link register its calls set
// (machCase.LateCode). A relink case (machCase.Relink), which excludes late
// code, holds its loop count, its sum, the second block's new word and the
// program base in the first four. Like churnRegs, only a random word
// writes them.
var lateRegs = []int{22, 23, 24, 25, 26}

// relinkCode is a relink case's slots 0..4 (machCase.Relink), and
// relinkWord the word its store writes over slot 2.
var relinkCode, relinkWord = func() ([]uint32, uint32) {
	n, sum, word, base := lateRegs[0], lateRegs[1], lateRegs[2], lateRegs[3]
	a := asm.New(ProgBase)
	a.Label("first")
	a.Addi(n, n, -1)
	a.J("second")
	a.Label("second")
	a.Addi(sum, sum, 1)
	a.Blt(asm.X0, n, "first")
	a.Sw(word, base, 8)
	a.Addi(sum, sum, 3)
	img := a.MustAssemble()
	code := make([]uint32, len(img)/4)
	for i := range code {
		code[i] = binary.LittleEndian.Uint32(img[4*i:])
	}
	return code[:5], code[5]
}()

// churnGenCSRs is the CSR surface of a churn case (machCase.Churn): the
// PMP CSRs again, weighted toward entry 0, which sits unlocked ahead of
// the confinement. Its pmpaddr0 writes move it among churnRegs' values and
// its immediate pmpcfg0 writes set its R/W/X bits and address mode (zimm
// covers exactly those five bits, and the locked bytes ignore the zeros).
var churnGenCSRs = append(slices.Clone(sbGenCSRs),
	asm.GenCSR{CSR: rv.CSRPmpaddr0, Forms: asm.FormCsrrw, Srcs: churnRegs},
	asm.GenCSR{CSR: rv.CSRPmpaddr0, Forms: asm.FormCsrrw, Srcs: churnRegs},
	asm.GenCSR{CSR: rv.CSRPmpaddr0, Forms: asm.FormCsrrw, Srcs: churnRegs},
	asm.GenCSR{CSR: rv.CSRPmpcfg0, Forms: asm.FormsImm},
	asm.GenCSR{CSR: rv.CSRPmpcfg0, Forms: asm.FormsImm},
)

// The Sv39 environment (machCase.Sv39): a three-level table in the top
// pages of the scratch window that maps the program's 2 MiB megapage and
// every scratch page (the tables' own pages included) to itself, the
// scratch pages through 4 KiB leaves.
const (
	sv39Root = ScratchBase + ScratchSize - 3*4096
	sv39L1   = sv39Root + 4096
	sv39Leaf = sv39L1 + 4096 // the scratch window's leaf table

	scratchPages = ScratchSize / 4096
)

// machCase is one machine-equivalence input.
type machCase struct {
	Profile  string
	Harts    int
	Timer    bool     // program mtimecmp so the comparators cross mid-run
	Mtimecmp []uint64 // per-hart comparator values when Timer is set
	Aimed    bool     // aimTimer aimed the comparators
	SMC      bool     // one base register points into the program window
	// SharedPage: one base register points at or before the program's end.
	SharedPage bool
	// Loop: the last slot jumps back to slot 0 (sbLoopBack).
	Loop bool
	// Churn: PMP entry 0 is unlocked, ahead of the locked confinement in
	// entries 1..3, so the program's PMP writes change verdicts. It starts
	// at ChurnCfg over ChurnAddr[0]; churnRegs hold ChurnAddr: a program
	// page, a scratch page a base register points into, and the middle of
	// that page (a sub-page bound under NA4 or TOR).
	Churn     bool
	ChurnCfg  byte
	ChurnAddr [3]uint64
	// Sv39: every hart starts with satp on the Sv39 environment. Leaves
	// are the scratch leaves' flag bits, ProgLeaf the program megapage's,
	// and one base register points at the leaf table, so stores remap and
	// reprotect pages under live TLB entries.
	Sv39     bool
	Leaves   [scratchPages]uint64
	ProgLeaf uint64
	// Remap: an Sv39 case that opens by rewriting the first base
	// register's leaf to RemapPTE's two PTEs (held in remapRegs), storing
	// through the page after each rewrite. The leaf table's own virtual
	// page maps elsewhere (LeafAlias), so a hart with MPRV stores there
	// while a hart without rewrites the table itself.
	Remap     bool
	RemapPTE  [2]uint64
	LeafAlias uint64
	// LateCode: slots 0..4 write a two-word stub at LateStub, on a line
	// of the code page that no slot of the program lies in, call it,
	// rewrite its second word and call it again. The first encoding
	// returns to the slot after the call, the second skips that slot, so
	// a hart that runs a stale decode or block of the stub retires a
	// different instruction stream.
	LateCode bool
	LateStub uint64
	// Relink: slots 0..4 loop RelinkIters times through two blocks, the
	// first ending in a jump to the second and the second branching back,
	// then rewrite the second block's first word ("addi sum, sum, 1"
	// becomes "addi sum, sum, 3"). A relink case loops, so the hart comes
	// back to the first block, which no write dropped.
	Relink      bool
	RelinkIters uint64
	K1          uint64 // steps before the fork; K2 = machStepBudget - K1
	Tier        int    // the forked machine's tier, an index into tierNames
	Prog        []uint32
	Init        []hartInit // per hart
}

func (tc *machCase) String() string {
	return fmt.Sprintf("case{%s, harts=%d, fork=%s@%d, timer=%v, smc=%v, shared-page=%v, loop=%v, churn=%v, sv39=%v, late-code=%v, relink=%v}",
		tc.Profile, tc.Harts, tierNames[tc.Tier], tc.K1, tc.Timer, tc.SMC, tc.SharedPage, tc.Loop, tc.Churn, tc.Sv39, tc.LateCode, tc.Relink)
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
	// Churn, Sv39, LateCode and Relink count the cases of each
	// environment, AimedTimers the timer cases aimTimer aimed.
	// VerdictChanges counts the interpreter steps after which a churn
	// case's entry 0 decoded differently on some hart: PMP writes that
	// changed a verdict. ModelProbes counts the checks of the changed
	// file against the reference model (probeEntry0). TLBHits counts
	// translated TLB hits, HostHits accesses the host tier answered,
	// HostWatchedHits host stores into a page with watched lines.
	Churn, Sv39, LateCode       int
	Relink, AimedTimers         int
	VerdictChanges, ModelProbes int
	TLBHits, HostHits           uint64
	HostWatchedHits             uint64
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
		Churn:   rng.Intn(3) == 0,
		Sv39:    rng.Intn(3) == 0,
	}
	if tc.Churn && rng.Intn(2) == 0 {
		tc.Loop = true // churn that returns to the code it ran under
	}
	relink := rng.Intn(5) == 0
	if relink {
		tc.Loop = true // the loop back brings the hart to the first block again
	}
	cfg := rig.genCfg
	if tc.Sv39 {
		// Offsets reach 32 PTEs past the leaf table's base, the scratch
		// window's 16 among them.
		cfg.BaseWindow = 256
	}
	if tc.Loop {
		// Loop case: the last slot jumps back to slot 0, so the program
		// runs round and round and chains re-enter translated blocks.
		// Offsets stay within one program length of their base, so an SMC
		// case's stores overwrite code that runs again.
		cfg.BaseWindow = 4 * Slots
	}
	if tc.Churn {
		cfg.CSRs = churnGenCSRs
	}
	tc.Prog = asm.Generate(rng, &cfg)
	if tc.Loop {
		tc.Prog[Slots-1] = sbLoopBack
	}
	var bases [32]uint64
	span := ScratchSize - 4096
	if tc.Sv39 {
		span = sv39Root - ScratchBase - 4096 // clear of the tables
	}
	for _, r := range rig.genCfg.BaseRegs {
		base := ScratchBase + uint64(rng.Intn(span))&^7
		if rng.Intn(6) == 0 {
			base |= uint64(rng.Intn(8))
		}
		bases[r] = base
	}
	prelude := tc.Churn && rig.genChurn(rng, tc, &bases)
	if tc.Sv39 {
		rig.genSv39(rng, tc, &bases, !prelude)
	}
	if !prelude && !tc.Remap {
		switch {
		case relink:
			tc.Relink = true
			tc.RelinkIters = uint64(32 + rng.Intn(96))
			copy(tc.Prog, relinkCode)
		case rng.Intn(3) == 0:
			genLateCode(rng, tc)
		}
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
		if tc.Churn {
			for j, r := range churnRegs {
				in.Regs[r] = tc.ChurnAddr[j]
			}
		}
		if tc.Remap {
			for j, r := range remapRegs {
				in.Regs[r] = tc.RemapPTE[j]
			}
		}
		if tc.LateCode {
			link := uint64(lateRegs[4]) << 15
			in.Regs[lateRegs[0]] = tc.LateStub
			in.Regs[lateRegs[1]] = uint64(rv.InstrNop)
			in.Regs[lateRegs[2]] = link | uint64(rv.OpJalr)         // jalr x0, 0(link)
			in.Regs[lateRegs[3]] = 4<<20 | link | uint64(rv.OpJalr) // jalr x0, 4(link)
		}
		if tc.Relink {
			in.Regs[lateRegs[0]] = tc.RelinkIters
			in.Regs[lateRegs[2]] = uint64(relinkWord)
			in.Regs[lateRegs[3]] = ProgBase
		}
		in.Mtvec = slot() | uint64(rng.Intn(2))
		in.Stvec = slot() | uint64(rng.Intn(2))
		in.Mepc, in.Sepc = slot(), slot()
		in.Mstatus = rng.Uint64()&(uint64(1)<<1|1<<3|1<<5|1<<7|1<<8) |
			[]uint64{0, 1, 3}[rng.Intn(3)]<<11
		if tc.Churn && rng.Intn(4) != 0 || tc.Sv39 && rng.Intn(2) == 0 {
			// MPRV with MPP = S or U: M-mode loads and stores, those
			// between the PMP writes included, take S or U verdicts (and
			// translation, under Sv39) until a trap or an mret ends it.
			in.Mstatus = in.Mstatus&^(3<<11) | []uint64{0, 1}[rng.Intn(2)]<<11 | 1<<17
		}
		in.Mie = rng.Uint64() & 0xAAA
		in.Medeleg = rng.Uint64() & 0xB3FF
		in.Mscratch, in.Sscratch = rng.Uint64(), rng.Uint64()
		in.Mcause, in.Scause = rng.Uint64(), rng.Uint64()
		in.Mtval, in.Stval = rng.Uint64(), rng.Uint64()
		if tc.Timer {
			tc.Mtimecmp = append(tc.Mtimecmp, uint64(rng.Intn(48)))
		}
	}
	if tc.Timer && rng.Intn(4) != 0 {
		rig.aimTimer(tc)
	}
	return tc
}

// aimTimerHeat is how many times hart 0 must have run an instruction of the
// program before aimTimer takes a crossing there: twice the heat at which
// an entry translates, so blocks are running there.
const aimTimerHeat = 32

// aimTimer enables the machine timer interrupt on every hart of a timer
// case (mie.MTIE and mstatus.MIE) and aims its comparators at the first
// tick that crosses while hart 0 runs hot code with the interrupt
// deliverable: the interpreter runs the case without the timer, a run the
// timed one matches up to the crossing, and each step that moves mtime is
// a candidate. The full stack runs such code in chained blocks, and a
// block that overran the headroom would take the interrupt late. Without
// such a tick the drawn comparators stand.
func (rig *machRig) aimTimer(tc *machCase) {
	for i := range tc.Init {
		tc.Init[i].Mie |= 1 << rv.IntMTimer
		tc.Init[i].Mstatus |= 1 << rv.MstatusMIE
	}
	m := rig.interp
	tc.Timer = false
	rig.install(m, tc)
	tc.Timer = true
	var runs [Slots]int
	h := m.Harts[0]
	for step := 0; step < machStepBudget && !h.Halted; step++ {
		now := m.Clint.Time()
		m.Step()
		off := h.PC - ProgBase
		if off >= 4*Slots {
			continue
		}
		if runs[off/4]++; runs[off/4] < aimTimerHeat || m.Clint.Time() == now {
			continue
		}
		if h.CSR.Mie&(1<<rv.IntMTimer) != 0 && (h.Mode != rv.ModeM || h.CSR.Mstatus&(1<<rv.MstatusMIE) != 0) {
			for i := range tc.Mtimecmp {
				tc.Mtimecmp[i] = m.Clint.Time()
			}
			tc.Aimed = true
			return
		}
	}
}

// genChurn draws a churn case's PMP entry 0 and plants pmpaddr0 writes in
// its program, each followed by a store or a load through the first base
// register, whose page entry 0 moves onto or off. Half the cases open with
// a prelude that moves it to all three addresses in turn (slots 0..6,
// before the first trap ends MPRV); it reports whether it planted one.
// The others get one to three such pairs anywhere. A third of the cases
// point the base at the edge page, which nothing else grants, so a
// sub-page bound there leaves the rest of the page denied.
func (rig *machRig) genChurn(rng *rand.Rand, tc *machCase, bases *[32]uint64) (prelude bool) {
	base := rig.genCfg.BaseRegs[0]
	if rng.Intn(3) == 0 {
		bases[base] = edgePage + 8*uint64(rng.Intn(256))
	}
	page := bases[base] &^ 4095
	tc.ChurnAddr = [3]uint64{napotAddr(ProgBase, 4096), napotAddr(page, 4096), (page + 2048) >> 2}
	rng.Shuffle(3, func(i, j int) { tc.ChurnAddr[i], tc.ChurnAddr[j] = tc.ChurnAddr[j], tc.ChurnAddr[i] })
	tc.ChurnCfg = byte(rng.Intn(8)) | []byte{pmp.ANapot, pmp.ANapot, pmp.ANa4, pmp.ATor}[rng.Intn(4)]<<3

	access := func(i int) {
		data := uint32(rig.genCfg.DataRegs[rng.Intn(len(rig.genCfg.DataRegs))])
		if rng.Intn(2) == 0 {
			tc.Prog[i] = data<<20 | uint32(base)<<15 | 3<<12 | rv.OpStore // sd data, 0(base)
		} else {
			tc.Prog[i] = uint32(base)<<15 | 3<<12 | data<<7 | rv.OpLoad // ld data, 0(base)
		}
	}
	move := func(i, r int) {
		tc.Prog[i] = uint32(rv.CSRPmpaddr0)<<20 | uint32(r)<<15 | rv.F3Csrrw<<12 | rv.OpSystem
	}
	if rng.Intn(2) == 0 {
		access(0)
		for j, r := range churnRegs {
			move(2*j+1, r)
			access(2*j + 2)
		}
		return true
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		i := rng.Intn(Slots - 2)
		move(i, churnRegs[rng.Intn(len(churnRegs))])
		access(i + 1)
	}
	return false
}

// genLateCode plants a late-code case's five slots (machCase.LateCode) and
// draws its stub's place: a doubleword of the program's first page past
// the lines the program occupies. The first stores there meet a page
// whose code lines are watched and whose stub line is not, so a host
// entry may write them in place; the call then arms the stub's line,
// after which the rewrite must reach the bus watch.
func genLateCode(rng *rand.Rand, tc *machCase) {
	tc.LateCode = true
	first := (4*Slots + 127) &^ 127 // the first line past the program
	tc.LateStub = ProgBase + uint64(first+8*rng.Intn((4096-first)/8))
	stub, link := uint32(lateRegs[0]), uint32(lateRegs[4])
	sw := func(r, off uint32) uint32 { return r<<20 | stub<<15 | 2<<12 | off<<7 | rv.OpStore } // sw r, off(stub)
	call := stub<<15 | link<<7 | rv.OpJalr                                                     // jalr link, 0(stub)
	copy(tc.Prog, []uint32{
		sw(uint32(lateRegs[1]), 0), sw(uint32(lateRegs[2]), 4), call,
		sw(uint32(lateRegs[3]), 4), call,
	})
}

// genSv39 draws an Sv39 case's leaves and points the second base register
// at the leaf table. With remap allowed, half the cases open with a
// prelude (slots 0..3) that remaps the first base register's page twice,
// each time storing through the new mapping: a hart without MPRV rewrites
// the leaf through its own host entry, and one with MPRV walks and stores
// through the page, so one hart's rewrite must reach the other's TLB.
func (rig *machRig) genSv39(rng *rand.Rand, tc *machCase, bases *[32]uint64, remap bool) {
	bases[rig.genCfg.BaseRegs[1]] = sv39Leaf
	for i := range tc.Leaves {
		// Mostly plain read-write pages; the rest draw R/W/X, U, A and D
		// at random (W without R is reserved, so it faults).
		tc.Leaves[i] = mmu.PteV | mmu.PteR | mmu.PteW | mmu.PteA | mmu.PteD
		if rng.Intn(4) == 0 {
			tc.Leaves[i] = mmu.PteV | rng.Uint64()&(mmu.PteR|mmu.PteW|mmu.PteX|mmu.PteU|mmu.PteA|mmu.PteD)
		}
	}
	tc.ProgLeaf = mmu.PteV | mmu.PteR | mmu.PteW | mmu.PteX | mmu.PteA | mmu.PteD
	if rng.Intn(4) == 0 {
		tc.ProgLeaf |= mmu.PteU // U-mode runs it, S-mode faults
	}
	if !remap || rng.Intn(2) != 0 {
		return
	}
	tc.Remap = true
	p := rng.Perm(int(sv39Root-ScratchBase) / 4096) // the pages below the tables
	for j := range tc.RemapPTE {
		pa := ScratchBase + 4096*uint64(p[j])
		tc.RemapPTE[j] = pa>>12<<10 | mmu.PteV | mmu.PteR | mmu.PteW | mmu.PteA | mmu.PteD
	}
	tc.LeafAlias = ScratchBase + 4096*uint64(p[2])
	off := uint32(bases[rig.genCfg.BaseRegs[0]]>>12&0x1FF) * 8
	leaf, base := uint32(rig.genCfg.BaseRegs[1]), uint32(rig.genCfg.BaseRegs[0])
	for j, r := range remapRegs {
		tc.Prog[2*j] = uint32(r)<<20 | leaf<<15 | 3<<12 | (off&0x1F)<<7 | (off>>5)<<25 | rv.OpStore // sd r, off(leaf)
		tc.Prog[2*j+1] = uint32(r)<<20 | base<<15 | 3<<12 | rv.OpStore                              // sd r, 0(base)
	}
}

// install writes the case onto a machine: full reset, the program and
// scratch images all harts share, and each hart's starting state and
// locked-PMP confinement (startHart), then the case's environments: the
// unlocked PMP entry 0 of a churn case, and the Sv39 table and satp.
func (rig *machRig) install(m *hart.Machine, tc *machCase) {
	m.Reset(ProgBase)
	loadWindows(m, tc.Prog)
	if tc.Sv39 {
		pte := func(pa, flags uint64) uint64 { return pa>>12<<10 | flags }
		for _, w := range [][2]uint64{
			{sv39Root + (ProgBase>>30&0x1FF)*8, pte(sv39L1, mmu.PteV)},
			{sv39L1 + (ProgBase>>21&0x1FF)*8, pte(ProgBase&^(1<<21-1), tc.ProgLeaf)},
			{sv39L1 + (ScratchBase>>21&0x1FF)*8, pte(sv39Leaf, mmu.PteV)},
		} {
			m.Bus.Store(w[0], 8, w[1])
		}
		for i, f := range tc.Leaves {
			va, pa := ScratchBase+uint64(i)*4096, ScratchBase+uint64(i)*4096
			if va == sv39Leaf && tc.Remap {
				pa = tc.LeafAlias
			}
			m.Bus.Store(sv39Leaf+(va>>12&0x1FF)*8, 8, pte(pa, f))
		}
	}
	for i, h := range m.Harts {
		startHart(h, &tc.Init[i])
		if tc.Churn {
			confine(h.CSR.PMP, 1)
			h.CSR.PMP.ForceAddr(0, tc.ChurnAddr[0])
			h.CSR.PMP.ForceCfg(0, tc.ChurnCfg)
		}
		if tc.Sv39 {
			h.CSR.WriteSatp(rv.SatpModeSv39<<60 | sv39Root>>12)
		}
		if tc.Timer {
			m.Clint.SetMtimecmp(i, tc.Mtimecmp[i])
		}
	}
}

// pmpEntry0 is what PMP entry 0 decides: its range and permissions.
type pmpEntry0 struct {
	lo, last uint64
	on       bool
	perm     byte
}

func entry0(f *pmp.File) pmpEntry0 {
	lo, last, on := f.Region(0)
	return pmpEntry0{lo, last, on, f.Cfg(0) & (pmp.CfgL | pmp.CfgR | pmp.CfgW | pmp.CfgX)}
}

// runCountingChurn runs the interpreter machine m for up to n steps, as
// Run would. Each step that leaves some hart's entry 0 deciding
// differently counts a verdict change in st, and that hart's file is held
// to the reference model (probeEntry0). Every tier decides PMP accesses
// through the same pmp.File scan, so only the model can see a wrong
// decision. The run stops at the first disagreement, which it describes;
// it returns "" when there is none.
func runCountingChurn(m *hart.Machine, n uint64, st *MachineStats) string {
	prev := make([]pmpEntry0, len(m.Harts))
	for i, h := range m.Harts {
		prev[i] = entry0(h.CSR.PMP)
	}
	bad := ""
	m.RunUntil(func() bool {
		for i, h := range m.Harts {
			if e := entry0(h.CSR.PMP); e != prev[i] {
				prev[i] = e
				st.VerdictChanges++
				if d := probeEntry0(h.CSR.PMP, e, &st.ModelProbes); d != "" && bad == "" {
					bad = fmt.Sprintf("interp-pmp-vs-model: hart%d: %s", h.ID, d)
				}
			}
		}
		return bad != ""
	}, n)
	return bad
}

// probeEntry0 compares f.Check with refmodel.PMPCheck over f's registers
// at entry 0's bounds (the byte below it, its first and last byte and the
// byte past it), at widths 1 and 8, for every access type and mode. It
// adds the probes it makes to *probes and describes the first
// disagreement, or returns "".
func probeEntry0(f *pmp.File, e pmpEntry0, probes *int) string {
	if !e.on {
		return ""
	}
	c := &refmodel.Config{PMPCount: f.NumEntries()}
	var s refmodel.State
	for i := 0; i < f.NumEntries(); i++ {
		s.PmpCfg[i], s.PmpAddr[i] = f.Cfg(i), f.Addr(i)
	}
	for _, a := range [...]uint64{e.lo - 1, e.lo, e.last, e.last + 1} {
		for _, w := range [...]int{1, 8} {
			for acc := mem.Read; acc <= mem.Exec; acc++ {
				for _, mode := range [...]rv.Mode{rv.ModeU, rv.ModeS, rv.ModeM} {
					*probes++
					// mem.AccessType and rv.Mode share the model's encodings.
					got := f.Check(a, w, acc, mode)
					if want := refmodel.PMPCheck(c, &s, a, w, int(acc), uint8(mode)); got != want {
						return fmt.Sprintf("pmp.File.Check(%#x, %d, %v, %v) = %v, refmodel.PMPCheck says %v (pmpcfg0=%#x pmpaddr0=%#x)",
							a, w, acc, mode, got, want, f.Cfg(0), f.Addr(0))
					}
				}
			}
		}
	}
	return ""
}

// run executes one case on every machine of the rig, adds its post-fork
// COW breaks to st, and describes the first divergence from the
// interpreter, or returns "".
func (rig *machRig) run(tc *machCase, st *MachineStats) (string, error) {
	k2 := machStepBudget - tc.K1
	rig.install(rig.interp, tc)
	if tc.Churn {
		// The interpreter steps one at a time either way (it has no tier
		// to batch steps with), so checking its PMP between steps costs
		// nothing in fidelity. A wrong decision makes the interpreter no
		// oracle for the other tiers.
		if d := runCountingChurn(rig.interp, machStepBudget, st); d != "" {
			return d, nil
		}
	} else {
		rig.interp.Run(machStepBudget)
	}
	for _, m := range []*hart.Machine{rig.fast, rig.sb} {
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
		if tc.Churn {
			st.Churn++
		}
		if tc.Sv39 {
			st.Sv39++
		}
		if tc.LateCode {
			st.LateCode++
		}
		if tc.Relink {
			st.Relink++
		}
		if tc.Aimed {
			st.AimedTimers++
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
				st.TLBHits += p.TLBHits
				st.HostHits += p.HostHits
				st.HostWatchedHits += p.HostWatchedHits
			}
		}
	}
	return st, nil
}
