package hart

import (
	"testing"

	"govfm/internal/asm"
	"govfm/internal/mem"
	"govfm/internal/mmu"
	"govfm/internal/pmp"
	"govfm/internal/rv"
)

// Host-tier tests: a TLB entry that carries host page bytes answers a
// guest load or store with a host load or store, so every event that
// makes those bytes stale (a snapshot, a copy-on-write break, a watch
// armed on the page) and every PMP shape a cached verdict must not cover
// has a test here. Each runs the program on the interpreter and on the
// full stack and requires the same end state.

// hostData is a data page off the test programs' code page.
const hostData = DramBase + 0x20000

// hostCountBody emits a loop that loads the doubleword at hostData, adds
// one and stores it back, iters times, then exits.
func hostCountBody(iters uint64) func(a *asm.Asm) {
	return func(a *asm.Asm) {
		a.Li(asm.S1, hostData)
		a.Li(asm.S2, iters)
		a.Label("loop")
		a.Ld(asm.T0, asm.S1, 0)
		a.Addi(asm.T0, asm.T0, 1)
		a.Sd(asm.T0, asm.S1, 0)
		a.Addi(asm.S2, asm.S2, -1)
		a.Bnez(asm.S2, "loop")
		a.Ld(asm.A0, asm.S1, 0)
		exit(a)
	}
}

// TestHostEntryAnswersDataAccesses runs a load-add-store loop bare and
// under Sv39: the full stack must match the interpreter, answer most of
// the loop's accesses from host entries, and run no PMP check for them.
func TestHostEntryAnswersDataAccesses(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(a *asm.Asm)
	}{
		{"bare", hostCountBody(300)},
		{"sv39", func(a *asm.Asm) {
			sv39Prologue(a)
			a.Label("smain")
			a.Li(asm.S2, 300)
			a.Li(asm.S1, testVA)
			a.Label("loop")
			a.Ld(asm.T0, asm.S1, 8)
			a.Addi(asm.T0, asm.T0, 1)
			a.Sd(asm.T0, asm.S1, 8)
			a.Addi(asm.S2, asm.S2, -1)
			a.Bnez(asm.S2, "loop")
			a.Ecall()
			a.Label("mtrap")
			exit(a)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			interp := sbMachine(t, tc.body, false, false)
			full := sbMachine(t, tc.body, true, true)
			interp.Run(20_000)
			full.Run(20_000)
			mustHalt(t, interp)
			mustHalt(t, full)
			sbCompareEnd(t, interp, full)
			h := full.Harts[0]
			if h.Perf.HostHits < 500 || h.Perf.HostFills == 0 {
				t.Errorf("host hits %d, fills %d: the loop's 600 accesses missed the host tier",
					h.Perf.HostHits, h.Perf.HostFills)
			}
			if c, ic := h.CSR.PMP.Perf.Checks, interp.Harts[0].CSR.PMP.Perf.Checks; c*10 > ic {
				t.Errorf("%d PMP checks against the interpreter's %d", c, ic)
			}
		})
	}
}

// TestHostWriteEntrySealedBySnapshot takes an image in the middle of a
// store loop answered by host write entries: the parent runs on, and a
// child spawned from the image afterwards must start from the image's
// bytes, not the parent's later stores. A write pointer that survived
// Bus.Snapshot would write the sealed page in place.
func TestHostWriteEntrySealedBySnapshot(t *testing.T) {
	parent := sbMachine(t, hostCountBody(400), true, true)
	parent.Run(600)
	if parent.Harts[0].Perf.HostHits == 0 {
		t.Fatalf("no host hits before the snapshot")
	}
	img, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	at, _ := parent.Bus.Load(hostData, 8)
	parent.Run(5000)
	mustHalt(t, parent)
	child, err := SpawnFromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := child.Bus.Load(hostData, 8); v != at {
		t.Fatalf("image holds %d at the counter, %d when it was taken", v, at)
	}
	child.Run(5000)
	mustHalt(t, child)
	sbCompareEnd(t, parent, child)
}

// TestHostReadEntryAfterCOWBreak snapshots the same loop mid-run and lets
// the parent go on: its next store breaks the counter's page off the
// image, and every later load must read the copy. A read pointer kept
// across the break would read the sealed original.
func TestHostReadEntryAfterCOWBreak(t *testing.T) {
	interp := sbMachine(t, hostCountBody(400), false, false)
	full := sbMachine(t, hostCountBody(400), true, true)
	for _, m := range []*Machine{interp, full} {
		m.Run(600)
		if _, err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
		m.Run(5000)
		mustHalt(t, m)
	}
	sbCompareEnd(t, interp, full)
	if full.Bus.COWCopies() == 0 {
		t.Fatalf("the loop broke no page off the snapshot")
	}
	if a0 := full.Harts[0].Regs[asm.A0]; a0 != 400 {
		t.Fatalf("counter %d, want 400", a0)
	}
}

// TestHostWriteEntryRetiresOnWatch writes code into a data page through
// host write entries, runs it (the fetch arms its line's watch), patches
// it and runs it again: the patch must reach the bus watch, so the second
// run executes the new instruction. It then does the same on another line
// of the now watched page, whose host stores the entry takes in place
// until the fetch grows the page's lines. A write pointer kept after a
// watch was armed, or after the lines grew, would patch the page behind
// the decode cache's back. Last, with two harts holding write entries for
// a page, growing its lines must retire both.
func TestHostWriteEntryRetiresOnWatch(t *testing.T) {
	addi := func(imm int64) uint64 {
		return uint64(encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.X0, imm) }))
	}
	ret := uint64(encodeOne(t, func(a *asm.Asm) { a.Jalr(asm.X0, asm.RA, 0) }))
	const far = 0x400 // line 8 of the page, away from the first routine
	body := func(a *asm.Asm) {
		a.Li(asm.S1, hostData)
		a.Li(asm.S2, 40) // warm the page's host entry with plain stores
		a.Label("warm")
		a.Sd(asm.S2, asm.S1, 64)
		a.Addi(asm.S2, asm.S2, -1)
		a.Bnez(asm.S2, "warm")
		a.Li(asm.T0, addi(1))
		a.Sw(asm.T0, asm.S1, 0)
		a.Li(asm.T0, ret)
		a.Sw(asm.T0, asm.S1, 4)
		a.Jalr(asm.RA, asm.S1, 0) // a0 = 1; the fetch arms the watch
		a.Mv(asm.A1, asm.A0)
		a.Li(asm.T0, addi(2))
		a.Sw(asm.T0, asm.S1, 0)   // patch
		a.Jalr(asm.RA, asm.S1, 0) // a0 = 2
		a.Mv(asm.A2, asm.A0)
		a.Addi(asm.S1, asm.S1, far)
		a.Li(asm.T0, addi(3))
		a.Sw(asm.T0, asm.S1, 0) // host stores beside the watched line
		a.Li(asm.T0, ret)
		a.Sw(asm.T0, asm.S1, 4)
		a.Jalr(asm.RA, asm.S1, 0) // a0 = 3; the fetch grows the lines
		a.Mv(asm.A3, asm.A0)
		a.Li(asm.T0, addi(4))
		a.Sw(asm.T0, asm.S1, 0)   // patch
		a.Jalr(asm.RA, asm.S1, 0) // a0 = 4
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
	if r := h.Regs; r[asm.A1] != 1 || r[asm.A2] != 2 || r[asm.A3] != 3 || r[asm.A0] != 4 {
		t.Fatalf("a1/a2/a3/a0 = %d/%d/%d/%d, want 1/2/3/4 (stale decode after a patch)",
			r[asm.A1], r[asm.A2], r[asm.A3], r[asm.A0])
	}
	if h.Perf.HostWatchedHits == 0 {
		t.Errorf("no host store into the watched page")
	}

	m := sbMachineN(t, 2, hostCountBody(1<<40), true, false)
	m.Run(400)
	entry := func(h *Hart) *mmu.Entry {
		ctx, _ := h.tlbCtx(rv.ModeM, false, false)
		return h.fast.tlb.Probe(hostData>>12, ctx)
	}
	for _, h := range m.Harts {
		if e := entry(h); e == nil || e.PA&mmu.HostW == 0 {
			t.Fatalf("precondition: hart%d holds no write entry for the page", h.ID)
		}
	}
	m.Bus.Watch(hostData+far, 4)
	for _, h := range m.Harts {
		if e := entry(h); e.PA&mmu.HostW != 0 {
			t.Errorf("hart%d kept its write entry after the page's lines grew", h.ID)
		}
	}
	m.Run(400) // the next stores refill the entries with the new lines
	for _, h := range m.Harts {
		if e := entry(h); e == nil || e.PA&mmu.HostW == 0 || e.Lines != mem.Lines(far, 4) {
			t.Fatalf("hart%d: no write entry with the page's line after the refill", h.ID)
		}
	}
	m.Bus.Watch(hostData+far+4, 4) // the same line: nothing grows
	for _, h := range m.Harts {
		if e := entry(h); e.PA&mmu.HostW == 0 {
			t.Errorf("hart%d lost its write entry to a watch that grew nothing", h.ID)
		}
	}
}

// TestDecodeMissArmsItsLine: a fetch that decodes a slot arms that slot's
// line of the page and no other, and a store that ends in a code line
// still drops its code when it starts in a line no code is in.
func TestDecodeMissArmsItsLine(t *testing.T) {
	const code = DramBase + 0x400 // line 8
	body := func(a *asm.Asm) {
		a.J("code")
		for a.PC() < code {
			a.Nop()
		}
		a.Label("code")
		a.Addi(asm.A0, asm.A0, 1)
		exit(a)
	}
	m := sbMachine(t, body, true, false)
	m.Run(100)
	mustHalt(t, m)
	_, _, lines := m.Bus.HostPage(DramBase)
	if want := mem.Lines(0, 4) | mem.Lines(0x400, 4*5); lines != want {
		t.Fatalf("lines %#x, want %#x: line 0 for the jump, line 8 for the code", lines, want)
	}
	h := m.Harts[0]
	dp := h.fast.pages[DramBase]
	if !dp.decoded(0x400 >> 2) {
		t.Fatal("precondition: the code's first slot is not cached")
	}
	m.Bus.Store(code-4, 8, 0) // line 7, no code, and the code's first slot
	if dp.decoded(0x400>>2) || h.Perf.CodeWriteInvalidations != 1 {
		t.Errorf("a store into line 7 and 8 kept the code in line 8: invalidations %d",
			h.Perf.CodeWriteInvalidations)
	}
}

// TestRawReadSlotsArmTheirLines translates a block whose entry is the last
// slot of a line, before any of its other slots was fetched: the
// translator reads them raw, from the next line, and must arm that line,
// so that a store into one of them drops the block.
func TestRawReadSlotsArmTheirLines(t *testing.T) {
	const entry = DramBase + 0x7C // the last slot of line 0
	patched := encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.A0, 100) })
	body := func(a *asm.Asm) {
		a.J("entry")
		for a.PC() < entry {
			a.Nop()
		}
		a.Label("entry")
		for i := 0; i < 4; i++ {
			a.Addi(asm.A0, asm.A0, 1)
		}
		exit(a)
	}
	m := sbMachine(t, body, true, true)
	h := m.Harts[0]
	m.Step() // the jump: single steps never dispatch a block
	if _, ei := h.fetchFast(); ei != nil || h.PC != entry {
		t.Fatalf("fetch at %#x: %v", h.PC, ei)
	}
	dp, slot := h.fast.fetchDP, h.fast.fetchSlot
	sb := h.sbTranslate(dp, slot)
	if sb.ops == nil || sb.span < 4 || dp.decoded(slot+1) {
		t.Fatalf("precondition: no block read line 1 raw (span %d)", sb.span)
	}
	m.Bus.Store(entry+8, 4, uint64(patched))
	if dp.block(slot) != nil || h.Perf.CodeWriteInvalidations != 1 {
		t.Fatalf("a store into a raw-read slot kept the block: invalidations %d", h.Perf.CodeWriteInvalidations)
	}
	interp := sbMachine(t, body, false, false)
	interp.Step()
	interp.Bus.Store(entry+8, 4, uint64(patched))
	interp.Run(100)
	m.Run(100)
	mustHalt(t, m)
	sbCompareEnd(t, interp, m)
}

// TestPTEPageWatchesEveryLine: a cached walk watches every line of the
// pages it read its PTEs from, since any PTE there may map a page the TLB
// caches.
func TestPTEPageWatchesEveryLine(t *testing.T) {
	m := sbMachine(t, func(a *asm.Asm) {
		sv39Prologue(a)
		a.Label("smain")
		a.Li(asm.S1, testVA)
		a.Ld(asm.A0, asm.S1, 8)
		a.Ecall()
		a.Label("mtrap")
		exit(a)
	}, true, false)
	m.Run(1000)
	mustHalt(t, m)
	for _, p := range []uint64{ptRoot, ptL1, ptL0} {
		if _, _, lines := m.Bus.HostPage(p); lines != ^uint32(0) {
			t.Errorf("page-table page %#x watches lines %#x", p, lines)
		}
	}
}

// TestHostVerdictNeedsWholePage gives a page a PMP entry over part of it
// only: a NA4 grant, and a TOR bound, each inside the page, with nothing
// else matching the rest. S-level loads (M-mode with MPRV, MPP = S) of
// the granted word succeed, and a load elsewhere on the page must fault.
// A verdict cached for the whole page from the granted part would let it
// through.
func TestHostVerdictNeedsWholePage(t *testing.T) {
	for _, tc := range []struct {
		name       string
		addr, cfg  uint64
		ok, denied int64 // offsets into hostData
	}{
		{"na4", (hostData + 0x100) >> 2, pmp.CfgR | pmp.ANa4<<3, 0x100, 0x200},
		{"tor", (hostData + 0x400) >> 2, pmp.CfgR | pmp.ATor<<3, 0x3f8, 0x400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := func(a *asm.Asm) {
				a.La(asm.T0, "mtrap")
				a.Csrw(rv.CSRMtvec, asm.T0)
				a.Li(asm.T0, tc.addr)
				a.Csrw(rv.CSRPmpaddr0, asm.T0)
				a.Li(asm.T0, tc.cfg)
				a.Csrw(rv.CSRPmpcfg0, asm.T0)
				a.Li(asm.T0, 1<<11|1<<17) // MPP = S, MPRV
				a.Csrrs(asm.X0, rv.CSRMstatus, asm.T0)
				a.Li(asm.S1, hostData)
				a.Li(asm.S2, 40)
				a.Label("loop")
				a.Ld(asm.T1, asm.S1, tc.ok)
				a.Addi(asm.S2, asm.S2, -1)
				a.Bnez(asm.S2, "loop")
				a.Ld(asm.A0, asm.S1, tc.denied) // faults
				a.Li(asm.A1, 1)
				a.Label("mtrap")
				a.Csrr(asm.A2, rv.CSRMcause)
				a.Li(asm.T0, 1<<17)
				a.Csrrc(asm.X0, rv.CSRMstatus, asm.T0)
				exit(a)
			}
			interp := sbMachine(t, body, false, false)
			full := sbMachine(t, body, true, true)
			for _, m := range []*Machine{interp, full} {
				_ = m.Bus.Store(hostData, 8, 7) // a page of the machine's own
				m.Run(5000)
				mustHalt(t, m)
			}
			sbCompareEnd(t, interp, full)
			if h := full.Harts[0]; h.Regs[asm.A1] != 0 || h.Regs[asm.A2] != rv.ExcLoadAccessFault {
				t.Fatalf("a1 = %d, mcause = %d: the load outside the grant did not fault",
					h.Regs[asm.A1], h.Regs[asm.A2])
			}
			if full.Harts[0].Perf.HostSkipPMP == 0 {
				t.Errorf("no fill counted the page as cut by a PMP region")
			}
		})
	}
}

// TestViewTableStaysBounded writes a pmpaddr no pass wrote before on each
// of 200 passes of a hot loop, so each pass settles a new PMP view: the
// intern table must stay within its cap, and the run must match the
// interpreter's.
func TestViewTableStaysBounded(t *testing.T) {
	body := func(a *asm.Asm) {
		pmpOpen(a)
		a.Li(asm.S1, 200)
		a.Label("loop")
		a.Csrw(rv.CSRPmpaddr0+6, asm.S1) // entry 6 is OFF: inert, but a new view
		for i := 0; i < 4; i++ {
			a.Addi(asm.A0, asm.A0, 1)
		}
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop")
		exit(a)
	}
	interp := sbMachine(t, body, false, false)
	full := sbMachine(t, body, true, true)
	interp.Run(10_000)
	full.Run(10_000)
	mustHalt(t, interp)
	mustHalt(t, full)
	sbCompareEnd(t, interp, full)
	views := full.Harts[0].CSR.PMP.Views()
	if n := views.Len(); n > pmp.ViewCap {
		t.Fatalf("the table holds %d views, cap %d", n, pmp.ViewCap)
	}
	if views.First() <= 1 {
		t.Fatalf("the table never cleared: first live ID %d after 200 new views", views.First())
	}
}
