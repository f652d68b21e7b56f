package hart

import (
	"fmt"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/obs"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// Superblock-tier tests. The tier only arms when a machine step carries a
// budget above one (Machine.Run), so these tests compare END STATES after
// Run(budget) rather than stepping per-instruction — per-step lockstep would never
// execute a block. The interpreter configuration of the same program is
// the oracle; cycle and instret counters must match bit for bit.

// sbMachine builds one single-hart machine loaded with body, with the
// fast path and superblock tier set as given.
func sbMachine(t *testing.T, body func(a *asm.Asm), fast, sb bool) *Machine {
	t.Helper()
	return sbMachineN(t, 1, body, fast, sb)
}

func sbMachineN(t *testing.T, harts int, body func(a *asm.Asm), fast, sb bool) *Machine {
	t.Helper()
	a := asm.New(DramBase)
	body(a)
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	cfg := VisionFive2()
	cfg.Harts = harts
	m, err := NewMachine(cfg, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(DramBase, img); err != nil {
		t.Fatal(err)
	}
	m.Reset(DramBase)
	m.SetFastPath(fast)
	m.SetSuperblock(sb)
	return m
}

// sbCompareEnd asserts two finished machines agree on every per-hart
// architectural observable, cycle counters included.
func sbCompareEnd(t *testing.T, want, got *Machine) {
	t.Helper()
	wh, wr := want.Halted()
	gh, gr := got.Halted()
	if wh != gh || wr != gr {
		t.Fatalf("halt: want=%v/%q got=%v/%q", wh, wr, gh, gr)
	}
	if w, g := want.Clint.Time(), got.Clint.Time(); w != g {
		t.Fatalf("mtime: want=%d got=%d", w, g)
	}
	for i := range want.Harts {
		hw, hg := want.Harts[i], got.Harts[i]
		if hw.Cycles != hg.Cycles || hw.Instret != hg.Instret || hw.SInstret != hg.SInstret {
			t.Fatalf("hart%d counters: want cycles=%d instret=%d/%d got cycles=%d instret=%d/%d",
				i, hw.Cycles, hw.Instret, hw.SInstret, hg.Cycles, hg.Instret, hg.SInstret)
		}
		if hw.PC != hg.PC || hw.Mode != hg.Mode {
			t.Fatalf("hart%d pc/mode: want=%#x/%v got=%#x/%v", i, hw.PC, hw.Mode, hg.PC, hg.Mode)
		}
		if hw.Regs != hg.Regs {
			for r := range hw.Regs {
				if hw.Regs[r] != hg.Regs[r] {
					t.Fatalf("hart%d x%d: want=%#x got=%#x", i, r, hw.Regs[r], hg.Regs[r])
				}
			}
		}
		for _, c := range []struct {
			name   string
			wv, gv uint64
		}{
			{"mstatus", hw.CSR.Mstatus, hg.CSR.Mstatus},
			{"mcause", hw.CSR.Mcause, hg.CSR.Mcause},
			{"mepc", hw.CSR.Mepc, hg.CSR.Mepc},
			{"satp", hw.CSR.Satp, hg.CSR.Satp},
		} {
			if c.wv != c.gv {
				t.Fatalf("hart%d %s: want=%#x got=%#x", i, c.name, c.wv, c.gv)
			}
		}
	}
}

// hotLoopBody emits a straight-line ALU loop of `iters` passes — long
// enough to cross the translation heat threshold many times over.
func hotLoopBody(iters uint64) func(a *asm.Asm) {
	return func(a *asm.Asm) {
		a.Li(asm.A0, 0)
		a.Li(asm.A1, 3)
		a.Li(asm.S1, iters)
		a.Label("loop")
		a.Add(asm.A0, asm.A0, asm.A1)
		a.Xor(asm.A2, asm.A0, asm.S1)
		a.Slli(asm.A3, asm.A2, 1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop")
		exit(a)
	}
}

// TestSuperblockHotLoop runs a hot loop under the interpreter, the fast
// path, and the full stack, and requires bit-identical end states while
// the full stack actually retires instructions inside blocks. Once
// translated, the loop's block chains into itself, so the remaining passes
// retire in a handful of dispatches rather than one per pass.
func TestSuperblockHotLoop(t *testing.T) {
	const iters = 2000
	interp := sbMachine(t, hotLoopBody(iters), false, false)
	fast := sbMachine(t, hotLoopBody(iters), true, false)
	full := sbMachine(t, hotLoopBody(iters), true, true)
	o := obs.New(obs.Options{})
	full.AttachObs(o)
	for _, m := range []*Machine{interp, fast, full} {
		m.Run(20000)
		mustHalt(t, m)
	}
	sbCompareEnd(t, interp, fast)
	sbCompareEnd(t, interp, full)
	p := &full.Harts[0].Perf
	if p.SBTranslations == 0 || p.SBRetired == 0 {
		t.Fatalf("superblock tier never engaged: translations=%d retired=%d",
			p.SBTranslations, p.SBRetired)
	}
	if p.SBHits > 10 || p.SBChains < iters-sbHotThreshold-10 {
		t.Errorf("dispatches = %d, chains = %d over %d passes", p.SBHits, p.SBChains, iters)
	}
	v := o.Metrics.Snapshot().Values
	if v["hart0.sb.chains"] != p.SBChains || v["sim.sb.chains"] != p.SBChains {
		t.Errorf("chain metrics %d/%d, want %d", v["hart0.sb.chains"], v["sim.sb.chains"], p.SBChains)
	}
	if fast.Harts[0].Perf.SBRetired != 0 {
		t.Fatalf("superblocks retired with the tier off: %d", fast.Harts[0].Perf.SBRetired)
	}
}

// TestSuperblockSelfModify patches an instruction inside a loop that has
// already been translated into a superblock: the store must invalidate
// the block (via the predecode page watch) and the patched encoding must
// execute, with counters identical to the interpreter.
func TestSuperblockSelfModify(t *testing.T) {
	patched := encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.A0, 100) })
	body := func(a *asm.Asm) {
		a.Li(asm.A0, 0)
		a.Li(asm.S1, 40) // well past the heat threshold before the patch
		a.La(asm.T0, "target")
		a.Li(asm.T1, uint64(patched))
		a.Label("loop")
		a.Label("target")
		a.Addi(asm.A0, asm.A0, 1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop")
		a.Bnez(asm.T3, "done") // second fall-through: finished
		// Loop is hot and translated; patch its first instruction and run
		// it once more — the re-entry must fetch the patched encoding.
		a.Li(asm.T3, 1)
		a.Sw(asm.T1, asm.T0, 0)
		a.Li(asm.S1, 1)
		a.J("loop")
		a.Label("done")
		exit(a)
	}
	interp := sbMachine(t, body, false, false)
	full := sbMachine(t, body, true, true)
	interp.Run(5000)
	full.Run(5000)
	mustHalt(t, interp)
	mustHalt(t, full)
	sbCompareEnd(t, interp, full)
	h := full.Harts[0]
	if h.Regs[asm.A0] != 40+100 {
		t.Errorf("a0 = %d, want 140 (stale superblock executed?)", h.Regs[asm.A0])
	}
	if h.Perf.SBRetired == 0 {
		t.Fatalf("superblock tier never engaged")
	}
}

// TestSuperblockSv39Loop runs a hot S-mode loop through a translated
// address, rewrites the leaf PTE mid-run (with sfence.vma), and loops
// again: blocks translated under the old mapping must not survive, and
// counters must match the interpreter exactly.
func TestSuperblockSv39Loop(t *testing.T) {
	body := func(a *asm.Asm) {
		sv39Prologue(a)
		a.Label("smain")
		a.Li(asm.S2, testVA)
		a.Li(asm.A0, 0)
		a.Li(asm.S1, 40)
		a.Label("loop1")
		a.Ld(asm.T0, asm.S2, 0) // 111
		a.Add(asm.A0, asm.A0, asm.T0)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop1")
		a.Li(asm.T0, ptL0) // remap the leaf through the identity window
		a.Li(asm.T1, pte(frameP2, pteRWAD))
		a.Sd(asm.T1, asm.T0, 0)
		a.SfenceVMA(asm.X0, asm.X0)
		a.Li(asm.S1, 40)
		a.Label("loop2")
		a.Ld(asm.T0, asm.S2, 0) // must read 222 now
		a.Add(asm.A1, asm.A1, asm.T0)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop2")
		a.Ecall()
		a.Label("mtrap")
		exit(a)
	}
	interp := sbMachine(t, body, false, false)
	full := sbMachine(t, body, true, true)
	interp.Run(5000)
	full.Run(5000)
	mustHalt(t, interp)
	mustHalt(t, full)
	sbCompareEnd(t, interp, full)
	h := full.Harts[0]
	if h.Regs[asm.A0] != 40*111 || h.Regs[asm.A1] != 40*222 {
		t.Errorf("a0/a1 = %d/%d, want %d/%d (stale translation in a block?)",
			h.Regs[asm.A0], h.Regs[asm.A1], 40*111, 40*222)
	}
	if h.Perf.SBRetired == 0 {
		t.Fatalf("superblock tier never engaged under Sv39")
	}
}

// TestSuperblockPMPEpochGuard reconfigures a PMP entry on every loop pass:
// each reconfiguration moves the PMP file to contents it has never held, a
// new view, so every translated block's entry guard goes stale
// immediately. End state must still be identical, and guard misses must
// actually occur.
func TestSuperblockPMPEpochGuard(t *testing.T) {
	body := func(a *asm.Asm) {
		pmpOpen(a)
		a.Li(asm.A0, 0)
		a.Li(asm.S1, 200)
		a.Label("loop")
		a.Csrw(rv.CSRPmpaddr0+6, asm.S1) // entry 6 is OFF: inert, but a new view
		a.Addi(asm.A0, asm.A0, 1)
		a.Xor(asm.A2, asm.A0, asm.S1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop")
		exit(a)
	}
	interp := sbMachine(t, body, false, false)
	full := sbMachine(t, body, true, true)
	interp.Run(5000)
	full.Run(5000)
	mustHalt(t, interp)
	mustHalt(t, full)
	sbCompareEnd(t, interp, full)
	if full.Harts[0].Perf.SBGuardMisses == 0 {
		t.Fatalf("no guard misses despite a new PMP view every pass")
	}
}

// TestPMPRoundTripKeepsCaches is the monitor's world switch in miniature:
// an S-mode loop under Sv39 traps to an M-mode handler that reprograms
// the PMP to a second view B, runs its own hot loop, restores view A and
// returns. Once both legs are warm, a round trip A→B→A walks no page
// table, translates no block and misses no guard: the return leg finds
// A's TLB entries and blocks under A's view ID. A program of six round
// trips must count exactly the walks, translations and guard misses of
// one of three.
func TestPMPRoundTripKeepsCaches(t *testing.T) {
	cfgA := uint64(0x1F) << 56               // pmpOpen: entry 7, NAPOT RWX over everything
	cfgB := cfgA | uint64(pmp.ANapot<<3)<<40 // and entry 5: a no-access page
	addrB := pmp.NAPOTAddr(0x1000_0000, 4096)
	body := func(rounds uint64) func(a *asm.Asm) {
		return func(a *asm.Asm) {
			sv39Prologue(a)
			a.Label("smain")
			a.Li(asm.S2, testVA)
			a.Label("round")
			a.Li(asm.S1, 40)
			a.Label("xloop")
			a.Ld(asm.T0, asm.S2, 0)
			a.Add(asm.A0, asm.A0, asm.T0)
			a.Addi(asm.S1, asm.S1, -1)
			a.Bnez(asm.S1, "xloop")
			a.Ecall() // the world switch
			a.J("round")
			a.Label("mtrap")
			a.Li(asm.T0, addrB) // view B
			a.Csrw(rv.CSRPmpaddr0+5, asm.T0)
			a.Li(asm.T0, cfgB)
			a.Csrw(rv.CSRPmpcfg0, asm.T0)
			a.Li(asm.S1, 40)
			a.Label("yloop")
			a.Addi(asm.A1, asm.A1, 3)
			a.Xor(asm.A2, asm.A1, asm.S1)
			a.Addi(asm.S1, asm.S1, -1)
			a.Bnez(asm.S1, "yloop")
			a.Csrw(rv.CSRPmpaddr0+5, asm.X0) // back to view A
			a.Li(asm.T0, cfgA)
			a.Csrw(rv.CSRPmpcfg0, asm.T0)
			a.Addi(asm.S3, asm.S3, 1)
			a.Li(asm.T0, rounds)
			a.Beq(asm.S3, asm.T0, "done")
			a.Csrr(asm.T0, rv.CSRMepc)
			a.Addi(asm.T0, asm.T0, 4)
			a.Csrw(rv.CSRMepc, asm.T0)
			a.Mret()
			a.Label("done")
			exit(a)
		}
	}
	run := func(rounds uint64) *Hart {
		interp := sbMachine(t, body(rounds), false, false)
		full := sbMachine(t, body(rounds), true, true)
		interp.Run(20_000)
		full.Run(20_000)
		mustHalt(t, interp)
		mustHalt(t, full)
		sbCompareEnd(t, interp, full)
		return full.Harts[0]
	}
	short, long := run(3), run(6)
	s, l := short.Perf, long.Perf
	if s.SBTranslations == 0 || s.PageWalks == 0 {
		t.Fatalf("the legs never warmed: %d translations, %d walks", s.SBTranslations, s.PageWalks)
	}
	if l.PageWalks != s.PageWalks || l.SBTranslations != s.SBTranslations ||
		l.SBGuardMisses != s.SBGuardMisses {
		t.Errorf("three more round trips moved walks %d -> %d, translations %d -> %d, guard misses %d -> %d",
			s.PageWalks, l.PageWalks, s.SBTranslations, l.SBTranslations, s.SBGuardMisses, l.SBGuardMisses)
	}
	if l.SBRetired <= s.SBRetired || l.TLBHits <= s.TLBHits {
		t.Errorf("three more round trips retired no block or hit no TLB entry: %+v vs %+v", l, s)
	}
	if n := long.CSR.PMP.Views().Len(); n != 2 {
		t.Errorf("the hart interned %d views, want 2 (A and B)", n)
	}
}

// TestSuperblockTimerInterruptExact is the interrupt-placement regression
// test: a machine timer comparator crosses in the middle of a hot,
// translated loop, with the interrupt enabled. The superblock machine
// must take the trap after exactly the same retired instruction — same
// instret, same cycles, same loop counter — as the interpreter, i.e. a
// block never runs past the cycle at which the interpreter's per-step
// interrupt latch would have preempted. The loop is one self-chaining
// block, or three blocks chained into each other; a sweep of comparator
// values lands the crossing on every op, block boundaries included. On two
// and four harts every hart runs the loop in rounds, with staggered
// comparators and hart 0's the latest: a round must stop at whichever
// hart's crossing comes first, and the clock must advance by each step's
// largest charge, not their sum.
func TestSuperblockTimerInterruptExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		loop func(a *asm.Asm)
	}{
		{"one-block", func(a *asm.Asm) {
			a.Label("loop")
			a.Addi(asm.A0, asm.A0, 1)
			a.Xor(asm.A2, asm.A0, asm.S1)
			a.Addi(asm.S1, asm.S1, -1)
			a.Bnez(asm.S1, "loop")
		}},
		{"three-blocks", func(a *asm.Asm) {
			a.Label("loop")
			a.Addi(asm.A0, asm.A0, 1)
			a.Xor(asm.A2, asm.A0, asm.S1)
			a.J("b2")
			a.Label("b2")
			a.Addi(asm.A3, asm.A3, 3)
			a.Sub(asm.A4, asm.A3, asm.A0)
			a.J("b3")
			a.Label("b3")
			a.Addi(asm.S1, asm.S1, -1)
			a.Bnez(asm.S1, "loop")
		}},
	} {
		body := func(a *asm.Asm) {
			a.La(asm.T0, "mtrap")
			a.Csrw(rv.CSRMtvec, asm.T0)
			a.Li(asm.T0, 1<<7) // MTIE
			a.Csrw(rv.CSRMie, asm.T0)
			a.Li(asm.T0, 1<<3) // MIE
			a.Csrrs(asm.X0, rv.CSRMstatus, asm.T0)
			a.Li(asm.A0, 0)
			a.Li(asm.S1, 100000)
			tc.loop(a)
			exit(a) // only reached if the interrupt never fires
			a.Label("mtrap")
			a.Csrr(asm.A5, rv.CSRMcause)
			exit(a)
		}
		for _, n := range []int{1, 2, 4} {
			// mtime ticks; each crosses a few thousand cycles in, mid-loop.
			for cmp := uint64(8); cmp < 24; cmp++ {
				name := fmt.Sprintf("%s/%d", tc.name, cmp)
				if n > 1 {
					name = fmt.Sprintf("%s/%d-harts/%d", tc.name, n, cmp)
				}
				t.Run(name, func(t *testing.T) {
					interp := sbMachineN(t, n, body, false, false)
					full := sbMachineN(t, n, body, true, true)
					for _, m := range []*Machine{interp, full} {
						for i := 0; i < n; i++ {
							m.Clint.SetMtimecmp(i, cmp+uint64(n-1-i))
						}
						m.Run(100000)
						mustHalt(t, m)
					}
					sbCompareEnd(t, interp, full)
					h := full.Harts[n-1] // the earliest comparator
					if h.Regs[asm.A5] != rv.Cause(7, true) {
						t.Fatalf("mcause = %#x, want machine timer interrupt", h.Regs[asm.A5])
					}
					if h.Regs[asm.A0] == 0 || h.Regs[asm.A0] >= 100000 {
						t.Fatalf("interrupt did not land mid-loop: a0 = %d", h.Regs[asm.A0])
					}
					if h.Perf.SBChains == 0 {
						t.Fatalf("tier never chained before the interrupt: %+v", h.Perf)
					}
					if n > 1 && sbRounds(full) == 0 {
						t.Fatal("no multi-hart round ran")
					}
				})
			}
		}
	}
}

// TestSuperblockForkDropsTranslations is the snapshot/fork satellite: a
// fork taken mid-run must not carry translated blocks (they are host
// state), the child must re-heat and re-translate, and parent and child
// must finish bit-identically.
func TestSuperblockForkDropsTranslations(t *testing.T) {
	parent := sbMachine(t, hotLoopBody(400), true, true)
	parent.Run(600) // hot: blocks translated and running
	if parent.Harts[0].Perf.SBTranslations == 0 {
		t.Fatalf("parent never translated before the fork")
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	hc := child.Harts[0]
	if !hc.sb.on {
		t.Fatalf("child lost the superblock tier switch")
	}
	if len(hc.fast.pages) != 0 || hc.fast.lastPage != nil {
		t.Fatalf("child carried host decode state across the fork")
	}
	parent.Run(5000)
	child.Run(5000)
	mustHalt(t, parent)
	mustHalt(t, child)
	sbCompareEnd(t, parent, child)
	if hc.Perf.SBTranslations == 0 {
		t.Fatalf("child never re-translated after the fork")
	}
}

// TestSuperblockImageRoundTrip checks the tier switch travels in the
// image both ways.
func TestSuperblockImageRoundTrip(t *testing.T) {
	for _, sb := range []bool{true, false} {
		m := sbMachine(t, hotLoopBody(50), true, sb)
		m.Run(100)
		img, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if img.Superblock != sb {
			t.Fatalf("image records superblock=%v, want %v", img.Superblock, sb)
		}
		spawned, err := SpawnFromImage(img)
		if err != nil {
			t.Fatal(err)
		}
		if spawned.SuperblockEnabled() != sb {
			t.Fatalf("spawned machine superblock=%v, want %v", spawned.SuperblockEnabled(), sb)
		}
	}
}

// codePageNear and codePageData are two doublewords of data on the same
// 4 KiB page as the test programs, whose code starts at DramBase.
// codePageNear sits inside the programs' first code line: codePageGap
// jumps over it, so it is never executed. codePageData is lines away from
// any code.
const (
	codePageNear = DramBase + 8
	codePageData = DramBase + 0x800
)

// codePageGap opens a program with a jump over codePageNear's two words.
func codePageGap(a *asm.Asm) {
	a.J("start")
	for a.PC() < codePageNear+16 {
		a.Nop()
	}
	a.Label("start")
}

// codePageDataBody is a hot loop that stores to data words at data, on
// its own code page, every pass, the way a hypervisor saves trap frames
// next to its handler. None of the stored words is ever executed.
func codePageDataBody(iters, data uint64) func(a *asm.Asm) {
	return func(a *asm.Asm) {
		// a0 is zero from reset.
		codePageGap(a)
		a.Li(asm.T0, data)
		a.Li(asm.S1, iters)
		a.Label("loop")
		a.Sd(asm.S1, asm.T0, 0)
		a.Add(asm.A0, asm.A0, asm.S1)
		a.Sw(asm.A0, asm.T0, 12)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop")
		exit(a)
	}
}

// codePageHalves are the two placements of a code page's data: inside a
// code line, where every store reaches the bus watch, and lines away from
// code, where stores are host stores the watch never sees.
var codePageHalves = []struct {
	name string
	data uint64
	near bool
}{{"near-line", codePageNear, true}, {"far-line", codePageData, false}}

// installedBlocks maps the physical entry address of every superblock
// installed in h's decode pages to the block.
func installedBlocks(h *Hart) map[uint64]*sblock {
	out := make(map[uint64]*sblock)
	for base, dp := range h.fast.pages {
		for c, chunk := range dp.blocks {
			if chunk == nil {
				continue
			}
			for i, b := range chunk {
				if b != nil {
					out[base+uint64(c*64+i)*4] = b
				}
			}
		}
	}
	return out
}

// TestCodePageDataStoreKeepsCode: data stores to non-code words of a code
// page drop no decode and no superblock: every block installed after
// warm-up is still installed, as the same block, after them. Inside a
// code line the obs layer reports the stores as data writes; lines away
// from code they are host stores into a watched page, which the watch
// never sees.
func TestCodePageDataStoreKeepsCode(t *testing.T) {
	const iters = 1 << 40 // never finishes within the budgets below
	for _, half := range codePageHalves {
		t.Run(half.name, func(t *testing.T) {
			interp := sbMachine(t, codePageDataBody(iters, half.data), false, false)
			full := sbMachine(t, codePageDataBody(iters, half.data), true, true)
			o := obs.New(obs.Options{})
			full.AttachObs(o)
			interp.Run(2000)
			full.Run(2000)
			h := full.Harts[0]
			warm := h.Perf
			blocks := installedBlocks(h)
			if len(blocks) == 0 || half.near && warm.CodePageDataWrites == 0 ||
				!half.near && warm.HostWatchedHits == 0 {
				t.Fatalf("precondition: loop untranslated or its stores unseen: %+v", warm)
			}
			interp.Run(5000)
			full.Run(5000)
			sbCompareEnd(t, interp, full)
			p := h.Perf
			if p.DecodeMisses != warm.DecodeMisses {
				t.Errorf("data stores cost decodes: decode misses %d -> %d", warm.DecodeMisses, p.DecodeMisses)
			}
			now := installedBlocks(h)
			for pc, b := range blocks {
				if now[pc] != b {
					t.Errorf("data stores dropped the block at %#x", pc)
				}
			}
			if p.CodeWriteInvalidations != 0 || p.SBRetired <= warm.SBRetired {
				t.Errorf("counters: %+v after warm-up %+v", p, warm)
			}
			if half.near && p.CodePageDataWrites <= warm.CodePageDataWrites {
				t.Errorf("near-line stores unseen: %+v after warm-up %+v", p, warm)
			}
			if !half.near && (p.CodePageDataWrites != 0 || p.HostHits <= warm.HostHits ||
				p.HostWatchedHits <= warm.HostWatchedHits) {
				t.Errorf("far-line stores missed the host tier: %+v after warm-up %+v", p, warm)
			}
			v := o.Metrics.Snapshot().Values
			if v["hart0.smc.data_writes"] != p.CodePageDataWrites || v["sim.smc.data_writes"] != p.CodePageDataWrites ||
				v["sim.smc.code_invalidations"] != 0 {
				t.Errorf("smc metrics %d/%d/%d, want %d/%d/0", v["hart0.smc.data_writes"],
					v["sim.smc.data_writes"], v["sim.smc.code_invalidations"], p.CodePageDataWrites, p.CodePageDataWrites)
			}
			if v["hart0.host.watched_hits"] != p.HostWatchedHits || v["sim.host.watched_hits"] != p.HostWatchedHits {
				t.Errorf("watched-hit metrics %d/%d, want %d", v["hart0.host.watched_hits"],
					v["sim.host.watched_hits"], p.HostWatchedHits)
			}
		})
	}
}

// TestCodePageDataThenCodeStore: after a data store onto a code page, a
// code store to the same page with no fetch in between must still drop the
// stale code. A watch consumed by the first notification, and re-armed
// only by a later fetch, would miss the second. Both stores come from
// outside the hart, as a DMA engine or the monitor would issue them. The
// near-line data store is seen and keeps the watch; the far-line one is
// not seen at all.
func TestCodePageDataThenCodeStore(t *testing.T) {
	patched := encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.A0, 100) })
	var target uint64
	body := func(a *asm.Asm) {
		codePageGap(a)
		a.Li(asm.A0, 0)
		a.Li(asm.S1, 100)
		a.Label("loop")
		target = a.PC()
		a.Addi(asm.A0, asm.A0, 1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop")
		exit(a)
	}
	for _, half := range codePageHalves {
		t.Run(half.name, func(t *testing.T) {
			interp := sbMachine(t, body, false, false)
			full := sbMachine(t, body, true, true)
			for _, m := range []*Machine{interp, full} {
				m.Run(150) // mid-loop, with the loop translated on full
				m.Bus.Store(half.data, 8, 0xD00D)
				m.Bus.Store(target, 4, uint64(patched))
				m.Run(5000)
				mustHalt(t, m)
			}
			sbCompareEnd(t, interp, full)
			p := full.Harts[0].Perf
			if p.CodeWriteInvalidations == 0 || p.SBRetired == 0 || half.near != (p.CodePageDataWrites != 0) {
				t.Errorf("counters: %+v", p)
			}
			if a0 := full.Harts[0].Regs[asm.A0]; a0 <= 100 {
				t.Errorf("a0 = %d: the patched instruction never ran", a0)
			}
		})
	}
}

// TestStoreIntoRawReadSlotEndsBlock: a block that read a slot raw (the
// translator decoded it without filling the cache) is dropped by a store
// into that slot, and when the block itself made the store it ends right
// after it, so the patched instruction runs on the interpreter.
func TestStoreIntoRawReadSlotEndsBlock(t *testing.T) {
	patched := encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.A0, 100) })
	var entry, patch uint64
	body := func(a *asm.Asm) {
		a.Li(asm.A0, 0)
		a.Li(asm.S1, 200)
		a.Li(asm.T0, codePageData) // moved onto the patch slot below
		a.Li(asm.T1, uint64(patched))
		a.Label("loop")
		entry = a.PC()
		a.Addi(asm.A0, asm.A0, 1)
		a.Sw(asm.T1, asm.T0, 0)
		a.Addi(asm.S1, asm.S1, -1)
		patch = a.PC()
		a.Addi(asm.A0, asm.A0, 1)
		a.Bnez(asm.S1, "loop")
		exit(a)
	}
	interp := sbMachine(t, body, false, false)
	full := sbMachine(t, body, true, true)
	interp.Run(300)
	full.Run(300)
	h := full.Harts[0]
	for h.PC != entry { // single steps never dispatch a block
		interp.Step()
		full.Step()
	}
	dp := h.fast.pages[entry&^4095]
	e := int(entry&4095) >> 2
	if dp == nil || dp.block(e) == nil || dp.block(e).ops == nil {
		t.Fatal("precondition: loop not translated")
	}
	// Forget every decode and block after the entry and re-heat it, so the
	// next dispatch retranslates the loop from raw reads.
	for i := e + 1; i < e+5; i++ {
		w, m := slotBit(i)
		dp.dec[w] &^= m
		dp.code[w] &^= m
		dp.setBlock(i, nil)
	}
	dp.setBlock(e, nil)
	dp.hot[e] = sbHotThreshold
	translated := h.Perf.SBTranslations
	interp.Harts[0].Regs[asm.T0] = patch
	h.Regs[asm.T0] = patch
	interp.Run(5000)
	full.Run(5000)
	mustHalt(t, interp)
	mustHalt(t, full)
	sbCompareEnd(t, interp, full)
	if h.Perf.SBTranslations == translated || h.Perf.CodeWriteInvalidations == 0 {
		t.Errorf("counters: %+v", h.Perf)
	}
}

// TestStraddlingStoreInvalidatesBothPages: a store across a page boundary
// drops exactly the slots it overlaps on each page.
func TestStraddlingStoreInvalidatesBothPages(t *testing.T) {
	boundary := uint64(DramBase + 0x1000)
	body := func(a *asm.Asm) {
		a.J("cross")
		for a.PC() < boundary-16 {
			a.Nop()
		}
		a.Label("cross")
		for i := 0; i < 8; i++ {
			a.Addi(asm.A0, asm.A0, 1)
		}
		exit(a)
	}
	m := sbMachine(t, body, true, true)
	m.Run(100)
	mustHalt(t, m)
	h := m.Harts[0]
	lo, hi := h.fast.pages[DramBase], h.fast.pages[boundary]
	if lo == nil || hi == nil || !lo.decoded(1022) || !lo.decoded(1023) ||
		!hi.decoded(0) || !hi.decoded(1) {
		t.Fatal("precondition: code around the page boundary not cached")
	}
	m.Bus.Store(boundary-4, 8, 0) // last slot of one page, first of the next
	if lo.decoded(1023) || hi.decoded(0) || !lo.decoded(1022) || !hi.decoded(1) {
		t.Errorf("decoded after store: lo 1022=%v 1023=%v, hi 0=%v 1=%v",
			lo.decoded(1022), lo.decoded(1023), hi.decoded(0), hi.decoded(1))
	}
	if n := h.Perf.CodeWriteInvalidations; n != 2 {
		t.Errorf("code invalidations = %d, want one per page", n)
	}
}

// TestCodePageDataStoreSeqPar: the data-on-code-page loop ends in the
// same state on the full stack as on the interpreter, and the full stack
// ends no block for its data stores, since none of them hits code: near
// a code line they reach the watch as data writes, and far from one they
// are host stores.
func TestCodePageDataStoreSeqPar(t *testing.T) {
	for _, half := range codePageHalves {
		t.Run(half.name, func(t *testing.T) {
			// Unbounded loops, so both machines stop on the step budget
			// rather than on the exit device.
			interp := sbMachine(t, codePageDataBody(1<<40, half.data), false, false)
			full := sbMachine(t, codePageDataBody(1<<40, half.data), true, true)
			interp.Run(3000)
			full.Run(3000)
			sbCompareEnd(t, interp, full)
			p := full.Harts[0].Perf
			if p.SBRetired == 0 || p.CodeWriteInvalidations != 0 || half.near != (p.CodePageDataWrites != 0) ||
				half.near == (p.HostWatchedHits != 0) {
				t.Errorf("counters %+v", p)
			}
			for off := uint64(0); off < 16; off += 8 {
				wi, _ := interp.Bus.Load(half.data+off, 8)
				wf, _ := full.Bus.Load(half.data+off, 8)
				if wi != wf {
					t.Errorf("data word +%d: interp %#x full %#x", off, wi, wf)
				}
			}
		})
	}
}

// TestCrossHartCodePatch is the behavioral half of satellite 1: another
// hart stores into the page hart 0 is currently executing (and fronting
// with the 1-entry lookup cache); hart 0 must fetch the patched encoding.
func TestCrossHartCodePatch(t *testing.T) {
	patched := encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.A0, 100) })
	body := func(a *asm.Asm) {
		a.Csrr(asm.T0, rv.CSRMhartid)
		a.Bnez(asm.T0, "hart1")
		// Hart 0: delay loop long enough for hart 1's patch to land, then
		// fall through the patched slot.
		a.Li(asm.A0, 0)
		a.Li(asm.S1, 200)
		a.Label("delay")
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "delay")
		a.Label("slot")
		a.Nop() // hart 1 patches this to addi a0,a0,100
		exit(a)
		// Hart 1: patch hart 0's slot, then spin until the machine halts.
		a.Label("hart1")
		a.La(asm.T1, "slot")
		a.Li(asm.T2, uint64(patched))
		a.Sw(asm.T2, asm.T1, 0)
		a.Label("spin")
		a.J("spin")
	}
	for _, sb := range []bool{false, true} {
		m := sbMachineN(t, 2, body, true, sb)
		m.Run(2000)
		mustHalt(t, m)
		if got := m.Harts[0].Regs[asm.A0]; got != 100 {
			t.Errorf("sb=%v: a0 = %d, want 100 (stale decode after cross-hart patch)", sb, got)
		}
	}
}

// ptStoreBody is a hot S-mode loop whose block, on its last pass, stores 0
// over the gigapage leaf that maps its own code, with no sfence.vma. The
// interpreter's next fetch walks the cleared leaf and takes an instruction
// page fault. A block never refetches, so it must end at that store.
func ptStoreBody(a *asm.Asm) {
	sv39Prologue(a)
	a.Label("smain")
	a.Li(asm.T0, ptRoot+2*8) // the gigapage leaf, through the identity map
	a.Li(asm.T1, frameP1+8)  // a data word off the page-table pages
	a.Sub(asm.T0, asm.T0, asm.T1)
	a.Li(asm.S1, 40)
	a.Label("loop")
	a.Addi(asm.S1, asm.S1, -1)
	a.Sltiu(asm.T2, asm.S1, 1) // 1 on the last pass
	a.Sub(asm.T2, asm.X0, asm.T2)
	a.And(asm.T3, asm.T0, asm.T2)
	a.Add(asm.T3, asm.T3, asm.T1) // the leaf on the last pass, else the data word
	a.Sd(asm.X0, asm.T3, 0)
	a.Addi(asm.A0, asm.A0, 1) // the last pass faults fetching this
	a.Addi(asm.A1, asm.A1, 1)
	a.Bnez(asm.S1, "loop")
	a.Ecall()
	a.Label("mtrap")
	exit(a)
}

// TestPageTableStoreEndsBlock: a store that unmaps the running code ends
// the block, so every tier faults on the same fetch as the interpreter.
func TestPageTableStoreEndsBlock(t *testing.T) {
	t.Run("seq", func(t *testing.T) {
		interp := sbMachine(t, ptStoreBody, false, false)
		fast := sbMachine(t, ptStoreBody, true, false)
		full := sbMachine(t, ptStoreBody, true, true)
		for _, m := range []*Machine{interp, fast, full} {
			m.Run(5000)
			mustHalt(t, m)
		}
		if c := interp.Harts[0].CSR.Mcause; c != rv.ExcInstrPageFault {
			t.Fatalf("interpreter mcause = %d, want an instruction page fault", c)
		}
		sbCompareEnd(t, interp, fast)
		sbCompareEnd(t, interp, full)
		if full.Harts[0].Perf.SBRetired == 0 {
			t.Fatal("superblock tier never engaged")
		}
	})
}

// TestSliceOwnCodePatch: a hart that overwrites an instruction of its own
// loop must execute the new encoding on the next pass, on every tier.
func TestSliceOwnCodePatch(t *testing.T) {
	patched := encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.A0, 100) })
	body := selfModifyBody(patched, false)
	interp := sbMachine(t, body, false, false)
	fast := sbMachine(t, body, true, false)
	full := sbMachine(t, body, true, true)
	for _, m := range []*Machine{interp, fast, full} {
		m.Run(1000)
		mustHalt(t, m)
	}
	sbCompareEnd(t, interp, fast)
	sbCompareEnd(t, interp, full)
	if a0 := full.Harts[0].Regs[asm.A0]; a0 != 101 {
		t.Errorf("a0 = %d, want 101 (stale decode after the patch?)", a0)
	}
}

// sbRunPair runs body on the interpreter and the full stack to the exit
// device and requires identical end states and at least one chain; it
// returns the full machine.
func sbRunPair(t *testing.T, body func(a *asm.Asm)) *Machine {
	t.Helper()
	interp := sbMachine(t, body, false, false)
	full := sbMachine(t, body, true, true)
	for _, m := range []*Machine{interp, full} {
		m.Run(5000)
		mustHalt(t, m)
	}
	sbCompareEnd(t, interp, full)
	if full.Harts[0].Perf.SBChains == 0 {
		t.Fatal("no block ever chained into another")
	}
	return full
}

// TestChainStaysOnEntryPage: a block on one page jumps to the same in-page
// offset on the next page, which holds different code. A chain looks up
// successors in the entry's decode page, so it must stop at the page
// change rather than run the entry page's block at that offset.
func TestChainStaysOnEntryPage(t *testing.T) {
	const off = 0x100
	full := sbRunPair(t, func(a *asm.Asm) {
		a.Li(asm.A0, 0)
		a.Li(asm.S1, 100)
		a.J("a")
		for a.PC() < DramBase+off {
			a.Nop()
		}
		a.Label("a") // a self-chaining loop on the first page...
		a.Addi(asm.A0, asm.A0, 1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Beqz(asm.S1, "done")
		a.Addi(asm.A1, asm.A1, 1)
		a.J("b")
		a.Label("done")
		exit(a)
		for a.PC() < DramBase+0x1000+off {
			a.Nop()
		}
		a.Label("b") // ...and different code at its offset on the next
		a.Addi(asm.A0, asm.A0, 100)
		a.Addi(asm.A2, asm.A2, 1)
		a.J("a")
	})
	if a0 := full.Harts[0].Regs[asm.A0]; a0 != 100+99*100 {
		t.Errorf("a0 = %d, want %d", a0, 100+99*100)
	}
}

// TestChainRechecksSuccessorGuard: M-mode revokes execute permission on
// the second block of a hot two-block S-mode loop. The first block passes
// its guard check after revalidation, but the second's guard is stale, so
// the chain must stop and the fetch of the second block must fault.
func TestChainRechecksSuccessorGuard(t *testing.T) {
	var second uint64
	full := sbRunPair(t, func(a *asm.Asm) {
		pmpOpen(a)
		a.La(asm.T0, "mtrap")
		a.Csrw(rv.CSRMtvec, asm.T0)
		a.Li(asm.T0, 3<<11) // MPP := S
		a.Csrrc(asm.X0, rv.CSRMstatus, asm.T0)
		a.Li(asm.T0, 1<<11)
		a.Csrrs(asm.X0, rv.CSRMstatus, asm.T0)
		a.La(asm.T0, "smain")
		a.Csrw(rv.CSRMepc, asm.T0)
		a.Mret()

		a.Label("smain")
		a.Li(asm.S1, 50)
		a.Label("first")
		a.Addi(asm.A0, asm.A0, 1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Beqz(asm.S1, "revoke")
		for a.PC()%16 != 0 {
			a.Nop()
		}
		second = a.PC()
		a.Addi(asm.A1, asm.A1, 1)
		a.Addi(asm.A2, asm.A2, 2)
		a.J("first")
		a.Label("revoke")
		a.Ecall()
		a.Li(asm.S1, 10)
		a.J("first")

		// M-mode: the first trap (the ecall) makes PMP entry 0 a
		// read/write-only NAPOT region over the second block and returns
		// past the ecall; the next trap ends the run.
		a.Label("mtrap")
		a.Csrr(asm.T0, rv.CSRMcause)
		a.Li(asm.T1, rv.ExcEcallFromS)
		a.Bne(asm.T0, asm.T1, "fin")
		a.Li(asm.T0, second>>2|1) // 16 bytes from second
		a.Csrw(rv.CSRPmpaddr0, asm.T0)
		a.Li(asm.T0, 0x1F<<56|0x1B) // entry 7 as pmpOpen set it; entry 0 NAPOT|R|W
		a.Csrw(rv.CSRPmpcfg0, asm.T0)
		a.Csrr(asm.T0, rv.CSRMepc)
		a.Addi(asm.T0, asm.T0, 4)
		a.Csrw(rv.CSRMepc, asm.T0)
		a.Mret()
		a.Label("fin")
		exit(a)
	})
	h := full.Harts[0]
	if h.CSR.Mcause != rv.ExcInstrAccessFault || h.CSR.Mepc != second {
		t.Errorf("mcause/mepc = %d/%#x, want an instruction access fault at %#x",
			h.CSR.Mcause, h.CSR.Mepc, second)
	}
}

// TestChainStopsAtMisalignedTarget: on its last pass a hot loop's jalr
// targets two bytes past the loop head, on the same page. The slot of that
// address holds the loop's own block, but the fetch must fault instead.
func TestChainStopsAtMisalignedTarget(t *testing.T) {
	full := sbRunPair(t, func(a *asm.Asm) {
		a.La(asm.T0, "mtrap")
		a.Csrw(rv.CSRMtvec, asm.T0)
		a.Li(asm.S1, 50)
		a.La(asm.T1, "loop")
		a.Label("loop")
		a.Addi(asm.A0, asm.A0, 1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Sltiu(asm.T2, asm.S1, 1) // 1 on the last pass
		a.Slli(asm.T2, asm.T2, 1)
		a.Add(asm.T3, asm.T1, asm.T2) // loop, or loop+2 on the last pass
		a.Jr(asm.T3)
		a.Label("mtrap")
		exit(a)
	})
	h := full.Harts[0]
	if h.CSR.Mcause != rv.ExcInstrAddrMisaligned || h.Regs[asm.A0] != 50 {
		t.Errorf("mcause = %d, a0 = %d: want a misaligned fetch after 50 passes",
			h.CSR.Mcause, h.Regs[asm.A0])
	}
}

// TestSentinelRetranslateAllocs: a PMP write that changes the view drops a
// sentinel at its next dispatch, and once the entry has heated up again the
// translator rebuilds it allocating nothing but the sentinel itself — the
// ops are built in the hart's scratch array, a sentinel keeps none, and
// settling onto a view the hart has interned before allocates nothing.
func TestSentinelRetranslateAllocs(t *testing.T) {
	m := sbMachine(t, func(a *asm.Asm) {
		a.Csrr(asm.A0, rv.CSRMscratch) // not block-eligible: a sentinel entry
		exit(a)
	}, true, true)
	h := m.Harts[0]
	if _, ei := h.fetchFast(); ei != nil {
		t.Fatalf("fetch: %+v", ei)
	}
	dp, slot := h.fast.fetchDP, h.fast.fetchSlot
	// Entry 6 is OFF, so its address changes the view and nothing else;
	// intern both of the views the loop alternates between up front.
	pass := uint64(0)
	for ; pass < 2; pass++ {
		h.CSR.PMP.ForceAddr(6, pass)
		h.CSR.PMP.View()
	}
	h.sbTranslate(dp, slot)
	allocs := testing.AllocsPerRun(50, func() {
		old := dp.block(slot)
		h.CSR.PMP.ForceAddr(6, pass%2)
		pass++
		for i := 0; i < sbHotThreshold+2; i++ {
			h.sbTry()
		}
		if sb := dp.block(slot); sb == nil || sb == old || sb.ops != nil {
			t.Fatalf("sentinel not rebuilt: %+v", sb)
		}
	})
	if allocs > 1 {
		t.Errorf("re-translating a sentinel allocated %.0f times, want at most its sblock", allocs)
	}
}
