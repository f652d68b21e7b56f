package hart

import (
	"testing"

	"govfm/internal/asm"
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
// host write entries, runs it (the fetch arms the page's watch), patches
// it and runs it again: the patch must reach the bus watch, so the second
// run executes the new instruction. A write pointer kept after the watch
// was armed would patch the page behind the decode cache's back.
func TestHostWriteEntryRetiresOnWatch(t *testing.T) {
	addi := func(imm int64) uint64 {
		return uint64(encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.X0, imm) }))
	}
	ret := uint64(encodeOne(t, func(a *asm.Asm) { a.Jalr(asm.X0, asm.RA, 0) }))
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
		exit(a)
	}
	interp := sbMachine(t, body, false, false)
	full := sbMachine(t, body, true, true)
	interp.Run(5000)
	full.Run(5000)
	mustHalt(t, interp)
	mustHalt(t, full)
	sbCompareEnd(t, interp, full)
	if h := full.Harts[0]; h.Regs[asm.A1] != 1 || h.Regs[asm.A0] != 2 {
		t.Fatalf("a1/a0 = %d/%d, want 1/2 (stale decode after the patch)", h.Regs[asm.A1], h.Regs[asm.A0])
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
