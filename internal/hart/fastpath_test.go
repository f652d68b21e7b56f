package hart

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/rv"
)

// Fast-vs-slow lockstep tests for the host acceleration caches. Each test
// assembles one program, runs it on two identical machines — host caches
// on and off — comparing the complete architectural state after every
// step, and targets a specific invalidation edge: self-modifying code,
// page-table rewrites under Sv39 (with and without sfence.vma), PMP
// reconfiguration under MPRV, and snapshot restore. The reference machine
// has no TLB and no decode cache, so the fast configuration must behave as
// if every fetch were decoded and every access walked fresh.

// fastSlowPair builds two identical single-hart machines loaded with body,
// one with host caches on and one with them off.
func fastSlowPair(t *testing.T, body func(a *asm.Asm)) (fast, slow *Machine) {
	t.Helper()
	a := asm.New(DramBase)
	body(a)
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(on bool) *Machine {
		cfg := VisionFive2()
		cfg.Harts = 1
		m, err := NewMachine(cfg, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadImage(DramBase, img); err != nil {
			t.Fatal(err)
		}
		m.Reset(DramBase)
		m.SetFastPath(on)
		return m
	}
	return mk(true), mk(false)
}

// runLockstep steps both machines together, comparing hart 0's state after
// every step, and returns the fast machine's hart for final assertions.
func runLockstep(t *testing.T, fast, slow *Machine, maxSteps int) *Hart {
	t.Helper()
	hf, hs := fast.Harts[0], slow.Harts[0]
	for step := 0; step < maxSteps; step++ {
		fh, _ := fast.Halted()
		sh, _ := slow.Halted()
		if fh != sh {
			t.Fatalf("step %d: halted fast=%v slow=%v", step, fh, sh)
		}
		if fh {
			break
		}
		fast.Step()
		slow.Step()
		if hf.PC != hs.PC || hf.Mode != hs.Mode {
			t.Fatalf("step %d: pc/mode fast=%#x/%v slow=%#x/%v",
				step, hf.PC, hf.Mode, hs.PC, hs.Mode)
		}
		if hf.Cycles != hs.Cycles || hf.Instret != hs.Instret {
			t.Fatalf("step %d (pc=%#x): counters fast=%d/%d slow=%d/%d",
				step, hf.PC, hf.Cycles, hf.Instret, hs.Cycles, hs.Instret)
		}
		if hf.Regs != hs.Regs {
			for i := range hf.Regs {
				if hf.Regs[i] != hs.Regs[i] {
					t.Fatalf("step %d (pc=%#x): x%d fast=%#x slow=%#x",
						step, hf.PC, i, hf.Regs[i], hs.Regs[i])
				}
			}
		}
	}
	if ok, reason := fast.Halted(); !ok || reason != "guest-exit-pass" {
		t.Fatalf("fast machine did not exit cleanly: %v %q (pc=%#x)", ok, reason, hf.PC)
	}
	mustHalt(t, slow)
	return hf
}

// encodeOne assembles a single instruction and returns its word.
func encodeOne(t *testing.T, emit func(a *asm.Asm)) uint32 {
	t.Helper()
	a := asm.New(0)
	emit(a)
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(img)
}

// selfModifyBody emits a loop whose first instruction is overwritten on the
// first pass: pass 1 executes "addi a0,a0,1" then patches the slot with
// "addi a0,a0,100", so pass 2 must fetch the new encoding. fence controls
// whether an explicit fence.i follows the patch (both must work: the
// simulated reference machine fetches from memory every cycle).
func selfModifyBody(patched uint32, fence bool) func(a *asm.Asm) {
	return func(a *asm.Asm) {
		a.Li(asm.A0, 0)
		a.Li(asm.S1, 2)
		a.La(asm.T0, "target")
		a.Li(asm.T1, uint64(patched))
		a.Label("loop")
		a.Label("target")
		a.Addi(asm.A0, asm.A0, 1)
		a.Sw(asm.T1, asm.T0, 0)
		if fence {
			a.FenceI()
		}
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop")
		exit(a)
	}
}

func TestFastPathSelfModifyingCode(t *testing.T) {
	patched := encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.A0, 100) })
	for _, tc := range []struct {
		name  string
		fence bool
	}{{"no-fence", false}, {"fence-i", true}} {
		t.Run(tc.name, func(t *testing.T) {
			fast, slow := fastSlowPair(t, selfModifyBody(patched, tc.fence))
			h := runLockstep(t, fast, slow, 100)
			if h.Regs[asm.A0] != 101 {
				t.Errorf("a0 = %d, want 101 (stale decode executed?)", h.Regs[asm.A0])
			}
		})
	}
}

// Sv39 scaffolding: a three-level table mapping testVA to frame P1 plus a
// 1 GiB identity gigapage over DRAM so S-mode keeps executing the test
// image at its physical addresses (and can rewrite its own page tables
// through the identity window).
const (
	ptRoot  = DramBase + 0x10000
	ptL1    = DramBase + 0x11000
	ptL0    = DramBase + 0x12000
	frameP1 = DramBase + 0x14000
	frameP2 = DramBase + 0x15000
	testVA  = 0x40_0000 // VPN2=0, VPN1=2, VPN0=0
)

const (
	pteV    = 1 << 0
	pteRWAD = pteV | 1<<1 | 1<<2 | 1<<6 | 1<<7
	pteRWX  = pteRWAD | 1<<3
)

func pte(pa uint64, flags uint64) uint64 { return pa>>12<<10 | flags }

// sv39Prologue emits the M-mode setup: PMP open, page tables and data
// frames written, mtvec pointing at an exit handler, then an mret into
// S-mode at "smain" with satp enabled.
func sv39Prologue(a *asm.Asm) {
	pmpOpen(a)
	for _, w := range []struct{ addr, val uint64 }{
		{ptRoot + 0*8, pte(ptL1, pteV)},
		{ptRoot + 2*8, pte(DramBase&^(1<<30-1), pteRWX)}, // 1 GiB identity leaf
		{ptL1 + 2*8, pte(ptL0, pteV)},
		{ptL0 + 0*8, pte(frameP1, pteRWAD)},
		{frameP1, 111},
		{frameP2, 222},
	} {
		a.Li(asm.T0, w.addr)
		a.Li(asm.T1, w.val)
		a.Sd(asm.T1, asm.T0, 0)
	}
	a.La(asm.T0, "mtrap")
	a.Csrw(rv.CSRMtvec, asm.T0)
	a.Li(asm.T0, 3<<11) // MPP := S
	a.Csrrc(asm.X0, rv.CSRMstatus, asm.T0)
	a.Li(asm.T0, 1<<11)
	a.Csrrs(asm.X0, rv.CSRMstatus, asm.T0)
	a.La(asm.T0, "smain")
	a.Csrw(rv.CSRMepc, asm.T0)
	a.Li(asm.T0, 8<<60|ptRoot>>12)
	a.Csrw(rv.CSRSatp, asm.T0)
	a.Mret()
}

func TestFastPathSv39PTERewrite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sfence func(a *asm.Asm)
	}{
		{"sfence-global", func(a *asm.Asm) { a.SfenceVMA(asm.X0, asm.X0) }},
		{"sfence-vaddr", func(a *asm.Asm) { a.SfenceVMA(asm.S2, asm.X0) }},
		// The reference machine walks on every access, so the new mapping
		// must be visible even without an sfence; the bus page watch is
		// what keeps the TLB honest here.
		{"no-sfence", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, slow := fastSlowPair(t, func(a *asm.Asm) {
				sv39Prologue(a)
				a.Label("smain")
				a.Li(asm.S2, testVA)
				a.Ld(asm.A0, asm.S2, 0) // 111, fills the TLB
				a.Li(asm.T0, ptL0)      // rewrite the leaf through the identity map
				a.Li(asm.T1, pte(frameP2, pteRWAD))
				a.Sd(asm.T1, asm.T0, 0)
				if tc.sfence != nil {
					tc.sfence(a)
				}
				a.Ld(asm.A1, asm.S2, 0) // must now read 222
				a.Ecall()
				a.Label("mtrap")
				exit(a)
			})
			h := runLockstep(t, fast, slow, 300)
			if h.Regs[asm.A0] != 111 || h.Regs[asm.A1] != 222 {
				t.Errorf("a0/a1 = %d/%d, want 111/222 (stale translation?)",
					h.Regs[asm.A0], h.Regs[asm.A1])
			}
		})
	}
}

func TestFastPathPMPReconfigUnderMPRV(t *testing.T) {
	const scratch = DramBase + 0x16000
	napot := uint64(scratch)>>2 | 4096>>3 - 1
	fast, slow := fastSlowPair(t, func(a *asm.Asm) {
		a.La(asm.T0, "mtrap")
		a.Csrw(rv.CSRMtvec, asm.T0)
		pmpOpen(a) // entry 7: allow-all backstop
		a.Li(asm.T0, scratch)
		a.Li(asm.T1, 77)
		a.Sd(asm.T1, asm.T0, 0)
		// Entry 0: R|W NAPOT over the scratch page.
		a.Li(asm.T1, napot)
		a.Csrw(rv.CSRPmpaddr0, asm.T1)
		a.Li(asm.T1, 0x1F<<56|0x1B) // keep entry 7; entry 0 = R|W|NAPOT
		a.Csrw(rv.CSRPmpcfg0, asm.T1)
		// MPRV with MPP=U: loads/stores check U-mode permissions.
		a.Li(asm.T1, 3<<11)
		a.Csrrc(asm.X0, rv.CSRMstatus, asm.T1) // MPP := U
		a.Li(asm.T1, 1<<17)
		a.Csrrs(asm.X0, rv.CSRMstatus, asm.T1) // MPRV := 1
		a.Ld(asm.A0, asm.T0, 0)                // allowed by entry 0
		// Revoke: entry 0 keeps matching but loses R|W, so the next load
		// must fault — the flattened PMP cache has to rebuild mid-run.
		a.Li(asm.T1, 0x1F<<56|0x18)
		a.Csrw(rv.CSRPmpcfg0, asm.T1)
		a.Ld(asm.A1, asm.T0, 0) // traps: load access fault
		exit(a)                 // unreachable
		a.Label("mtrap")
		a.Li(asm.T1, 1<<17)
		a.Csrrc(asm.X0, rv.CSRMstatus, asm.T1) // drop MPRV
		a.Csrr(asm.A5, rv.CSRMcause)
		exit(a)
	})
	h := runLockstep(t, fast, slow, 200)
	if h.Regs[asm.A0] != 77 {
		t.Errorf("a0 = %d, want 77", h.Regs[asm.A0])
	}
	if h.Regs[asm.A5] != uint64(rv.ExcLoadAccessFault) {
		t.Errorf("mcause = %d, want load access fault (%d)",
			h.Regs[asm.A5], rv.ExcLoadAccessFault)
	}
}

// TestFastPathSnapshotRestore checkpoints mid-run, finishes, restores, and
// finishes again: both completions must be bit-identical even though the
// first one patched code and remapped pages, which would poison a cache
// that survived the restore.
func TestFastPathSnapshotRestore(t *testing.T) {
	patched := encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.A0, 100) })
	a := asm.New(DramBase)
	selfModifyBody(patched, false)(a)
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	cfg := VisionFive2()
	cfg.Harts = 1
	m, err := NewMachine(cfg, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(DramBase, img); err != nil {
		t.Fatal(err)
	}
	m.Reset(DramBase)
	m.SetFastPath(true)
	m.Run(5) // partway into the first loop pass, caches warm
	ram, err := m.Bus.ReadBytes(DramBase, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Checkpoint()

	m.Run(1000)
	mustHalt(t, m)
	h := m.Harts[0]
	regs1, cycles1 := h.Regs, h.Cycles

	m.Restore(snap)
	if err := m.Bus.WriteBytes(DramBase, ram); err != nil {
		t.Fatal(err)
	}
	m.Run(1000)
	mustHalt(t, m)
	if h.Regs != regs1 || h.Cycles != cycles1 {
		t.Fatalf("replay diverged: regs1[a0]=%d regs2[a0]=%d cycles %d vs %d",
			regs1[asm.A0], h.Regs[asm.A0], cycles1, h.Cycles)
	}
	if h.Regs[asm.A0] != 101 {
		t.Errorf("a0 = %d, want 101", h.Regs[asm.A0])
	}
}

// TestFastPathSv39RandomizedLockstep drives random interleavings of
// loads/stores through testVA, leaf-PTE rewrites between two frames, and
// the three sfence.vma forms, comparing fast and slow machines after every
// instruction.
func TestFastPathSv39RandomizedLockstep(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fast, slow := fastSlowPair(t, func(a *asm.Asm) {
			sv39Prologue(a)
			a.Label("smain")
			a.Li(asm.S2, testVA)
			a.Li(asm.S3, ptL0)
			a.Li(asm.S4, pte(frameP1, pteRWAD))
			a.Li(asm.S5, pte(frameP2, pteRWAD))
			a.Li(asm.A0, 0) // running XOR of loads
			a.Li(asm.A1, 1) // store counter
			for i := 0; i < 120; i++ {
				switch rng.Intn(7) {
				case 0, 1:
					a.Ld(asm.T0, asm.S2, 0)
					a.Xor(asm.A0, asm.A0, asm.T0)
				case 2:
					a.Sd(asm.A1, asm.S2, 0)
					a.Addi(asm.A1, asm.A1, 1)
				case 3:
					a.Sd(asm.S4, asm.S3, 0) // leaf -> P1
				case 4:
					a.Sd(asm.S5, asm.S3, 0) // leaf -> P2
				case 5:
					a.SfenceVMA(asm.X0, asm.X0)
				default:
					a.SfenceVMA(asm.S2, asm.X0)
				}
			}
			a.Ecall()
			a.Label("mtrap")
			exit(a)
		})
		runLockstep(t, fast, slow, 2000)
	}
}
