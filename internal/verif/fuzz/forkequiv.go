package fuzz

// Fork-equivalence suite: the gate for the copy-on-write snapshot/fork
// engine. Each randomized case boots a machine, runs it k1 steps, forks it
// (Machine.Snapshot + image spawn), and runs parent and child k2 more
// steps; a cold machine replays the identical trajectory (k1 then k2 with
// the same call sequence). Both the child and the post-fork parent must
// match the cold replay bit for bit — cycle counters, registers, CSRs,
// memory, console output, and mtime — on both profiles, one and two
// harts, and all three execution tiers (forkSweep). Any divergence means a
// fork is observable from inside the machine, which would invalidate
// every fork-spawned campaign.
//
// Cases are closed systems (see machdiff.go): each hart is confined by
// locked PMP entries to its own program and scratch windows, so generated
// wild accesses trap deterministically instead of wandering into device
// space. The wall clock runs: forks must preserve the mtime remainder
// exactly.

import (
	"fmt"
	"math/rand"
	"slices"

	"govfm/internal/asm"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/rv"
)

// forkStepBudget bounds the case's total trajectory (k1 + k2).
const forkStepBudget = 512

// forkGenCSRs is the closed CSR surface minus mie: fork cases never enable
// interrupts.
var forkGenCSRs = slices.DeleteFunc(slices.Clone(closedGenCSRs),
	func(c asm.GenCSR) bool { return c.CSR == rv.CSRMie })

// ForkCase is one fork-equivalence input.
type ForkCase struct {
	Profile    string
	Harts      int
	FastPath   bool
	Superblock bool   // superblock tier on (only meaningful with FastPath)
	K1, K2     uint64 // steps before the fork / steps after it

	Progs [][]uint32
	Init  []hartInit
}

func (tc *ForkCase) String() string {
	fp := "fast"
	if !tc.FastPath {
		fp = "nofast"
	}
	if tc.Superblock {
		fp += "+sb"
	}
	return fmt.Sprintf("forkcase{%s, harts=%d, %s, k1=%d, k2=%d}",
		tc.Profile, tc.Harts, fp, tc.K1, tc.K2)
}

// ForkMismatch is one fork-vs-cold-replay divergence.
type ForkMismatch struct {
	Case *ForkCase
	Desc string
}

func (m *ForkMismatch) String() string { return m.Desc + " in " + m.Case.String() }

// ForkEquivStats summarizes a fork-equivalence run.
type ForkEquivStats struct {
	Cases      int
	Steps      int // machine steps across all cases (parent trajectory)
	ForkPages  int // pages carried by all fork images (snapshot O(touched) proxy)
	Mismatches []*ForkMismatch
}

// forkRig holds one (profile, hart-count) configuration's machine trio:
// parent and cold are installed per case; child is re-imaged from the
// parent's fork each case via LoadImageState — deliberately exercising
// machine reuse (one long-lived machine, many images) rather than
// allocating a fresh machine per case.
type forkRig struct {
	profile             string
	harts               int
	parent, cold, child *hart.Machine
	genCfg              asm.GenCfg
}

func newForkRig(profile string, harts int) (*forkRig, error) {
	mk, ok := hart.Profiles()[profile]
	if !ok {
		return nil, fmt.Errorf("fuzz: unknown profile %q", profile)
	}
	rig := &forkRig{
		profile: profile,
		harts:   harts,
		genCfg: asm.GenCfg{
			Slots:      Slots,
			DataRegs:   []int{10, 11, 12, 13, 14, 15},
			BaseRegs:   []int{16, 17, 18},
			BaseWindow: 2048,
			CSRs:       forkGenCSRs,
		},
	}
	for _, dst := range []**hart.Machine{&rig.parent, &rig.cold, &rig.child} {
		cfg := mk()
		cfg.Harts = harts
		m, err := hart.NewMachine(cfg, core.DramSize)
		if err != nil {
			return nil, err
		}
		*dst = m
	}
	return rig, nil
}

// genForkCase draws one case for this rig's configuration.
func (rig *forkRig) genForkCase(rng *rand.Rand, fast, sb bool) *ForkCase {
	k1 := uint64(16 + rng.Intn(forkStepBudget/2))
	tc := &ForkCase{
		Profile:    rig.profile,
		Harts:      rig.harts,
		FastPath:   fast,
		Superblock: sb,
		K1:         k1,
		K2:         uint64(forkStepBudget) - k1,
		Progs:      make([][]uint32, rig.harts),
		Init:       make([]hartInit, rig.harts),
	}
	for i := 0; i < rig.harts; i++ {
		tc.Progs[i] = asm.Generate(rng, &rig.genCfg)
		in := &tc.Init[i]
		for r := 1; r < 32; r++ {
			in.Regs[r] = rng.Uint64()
		}
		for _, r := range rig.genCfg.BaseRegs {
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
		in.Medeleg = rng.Uint64() & 0xB3FF
		in.Mscratch, in.Sscratch = rng.Uint64(), rng.Uint64()
		in.Mcause, in.Scause = rng.Uint64(), rng.Uint64()
		in.Mtval, in.Stval = rng.Uint64(), rng.Uint64()
	}
	return tc
}

// install writes the case onto a machine: full reset, the case's execution
// tier, then each hart's program and scratch images and its confined
// starting state (startHart).
func (rig *forkRig) install(m *hart.Machine, tc *ForkCase) {
	m.Reset(ProgBase)
	m.SetFastPath(tc.FastPath)
	m.SetSuperblock(tc.Superblock)
	for i, h := range m.Harts {
		loadWindows(m, progBase(i), scratchBase(i), tc.Progs[i])
		startHart(h, &tc.Init[i], progBase(i), scratchBase(i))
	}
}

// forkHartCounts are the machine sizes each profile's rigs cover.
var forkHartCounts = []int{1, 2}

// forkSweep maps case c to its rig index and execution tier — the
// interpreter, the fast path, or the fast path with superblocks — given
// nrigs rigs (profile × hart count). Every 3*nrigs consecutive cases
// cover each rig × tier cell exactly once.
func forkSweep(c, nrigs int) (rig int, fast, sb bool) {
	tier := (c / nrigs) % 3
	return c % nrigs, tier > 0, tier == 2
}

// RunForkEquivalence fuzzes `cases` fork-equivalence cases per profile,
// swept across hart count × execution tier (forkSweep). Every case runs a
// parent k1 steps, forks it, runs parent and child k2 more steps, and
// compares both against a cold machine replaying the identical k1+k2 call
// sequence. A forked machine must re-translate superblocks
// bit-identically.
func RunForkEquivalence(profiles []string, seed int64, cases int) (*ForkEquivStats, error) {
	var rigs []*forkRig
	for _, prof := range profiles {
		for _, n := range forkHartCounts {
			rig, err := newForkRig(prof, n)
			if err != nil {
				return nil, err
			}
			rigs = append(rigs, rig)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	st := &ForkEquivStats{}
	for c := 0; c < cases*len(profiles); c++ {
		r, fast, sb := forkSweep(c, len(rigs))
		rig := rigs[r]
		tc := rig.genForkCase(rng, fast, sb)

		rig.install(rig.parent, tc)
		rig.parent.Run(tc.K1)
		img, err := rig.parent.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("fuzz: snapshot of %v: %w", tc, err)
		}
		st.ForkPages += img.Mem.Pages()

		// Child continues from the image on the rig's long-lived machine.
		if err := rig.child.LoadImageState(img); err != nil {
			return nil, fmt.Errorf("fuzz: spawn of %v: %w", tc, err)
		}
		rig.child.Run(tc.K2)
		rig.parent.Run(tc.K2)

		rig.install(rig.cold, tc)
		rig.cold.Run(tc.K1)
		rig.cold.Run(tc.K2)

		st.Cases++
		st.Steps += int(tc.K1 + tc.K2)
		for _, half := range []struct {
			tag string
			m   *hart.Machine
		}{{"child-vs-cold", rig.child}, {"parent-vs-cold", rig.parent}} {
			if desc := diffMachines(half.tag, rig.cold, half.m, ownWindows(rig.harts)); desc != "" {
				st.Mismatches = append(st.Mismatches, &ForkMismatch{Case: tc, Desc: desc})
			}
		}
		if len(st.Mismatches) >= 10 {
			break
		}
	}
	return st, nil
}
