package hart

import (
	"strings"
	"sync"
	"testing"

	"govfm/internal/asm"
)

// forkProg is a single-hart workload with a data-dependent store pattern:
// an LCG streamed into a 2-page ring buffer, then a UART byte and a clean
// exit. Every iteration both computes and dirties memory, so a fork in the
// middle exercises COW break-off on real pages.
func forkProg(iters int64) []byte {
	a := asm.New(DramBase)
	a.Li(asm.S0, DramBase+0x10000)
	a.Li(asm.S1, uint64(iters))
	a.Li(asm.T0, 0) // i
	a.Li(asm.T1, 1) // lcg state
	a.Li(asm.T4, 25)
	a.Label("loop")
	a.Mul(asm.T1, asm.T1, asm.T4)
	a.Addi(asm.T1, asm.T1, 7)
	a.Andi(asm.T2, asm.T0, 0x3FF)
	a.Slli(asm.T2, asm.T2, 3)
	a.Add(asm.T2, asm.T2, asm.S0)
	a.Sd(asm.T1, asm.T2, 0)
	a.Addi(asm.T0, asm.T0, 1)
	a.Blt(asm.T0, asm.S1, "loop")
	a.Li(asm.T2, UartBase)
	a.Li(asm.T3, '!')
	a.Sb(asm.T3, asm.T2, 0)
	a.Li(asm.T2, ExitBase)
	a.Li(asm.T3, ExitPass)
	a.Sd(asm.T3, asm.T2, 0)
	return a.MustAssemble()
}

// machinesEqual fails the test if two machines differ on any architectural
// observable: per-hart counters, registers, PC/mode, device-visible
// output, and the data region.
func machinesEqual(t *testing.T, tag string, a, b *Machine) {
	t.Helper()
	for i := range a.Harts {
		ha, hb := a.Harts[i], b.Harts[i]
		if ha.Cycles != hb.Cycles || ha.Instret != hb.Instret {
			t.Errorf("%s: hart %d cycles/instret %d/%d vs %d/%d",
				tag, i, ha.Cycles, ha.Instret, hb.Cycles, hb.Instret)
		}
		if ha.PC != hb.PC || ha.Mode != hb.Mode || ha.Regs != hb.Regs {
			t.Errorf("%s: hart %d pc/mode/regs differ: %#x/%v vs %#x/%v",
				tag, i, ha.PC, ha.Mode, hb.PC, hb.Mode)
		}
	}
	if a.Uart.Output() != b.Uart.Output() {
		t.Errorf("%s: uart %q vs %q", tag, a.Uart.Output(), b.Uart.Output())
	}
	if a.Clint.Time() != b.Clint.Time() {
		t.Errorf("%s: mtime %d vs %d", tag, a.Clint.Time(), b.Clint.Time())
	}
	ba, err1 := a.Bus.ReadBytes(DramBase, 1<<17)
	bb, err2 := b.Bus.ReadBytes(DramBase, 1<<17)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: readback: %v %v", tag, err1, err2)
	}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Errorf("%s: memory differs first at +%#x", tag, i)
			break
		}
	}
}

// TestForkMatchesColdReplay is the core fork contract at machine level: a
// child forked at step k1 and run to completion must be bit-identical —
// cycle counters included — to a cold machine replayed through the same
// trajectory, with the fast path on and off; and the parent, running on
// after the fork, must be equally unperturbed by the child.
func TestForkMatchesColdReplay(t *testing.T) {
	for _, fast := range []bool{true, false} {
		name := "seq"
		if !fast {
			name += "-nofast"
		}
		t.Run(name, func(t *testing.T) {
			prog := forkProg(4000)
			build := func() *Machine {
				m := newTestMachine(t, 1)
				m.SetFastPath(fast)
				_ = m.LoadImage(DramBase, prog)
				m.Reset(DramBase)
				return m
			}
			const k1, k2 = 5000, 100000

			parent := build()
			parent.Run(k1)
			img, err := parent.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			child, err := SpawnFromImage(img)
			if err != nil {
				t.Fatal(err)
			}
			child.Run(k2)
			parent.Run(k2)

			cold := build()
			cold.Run(k1)
			cold.Run(k2)

			if ok, reason := child.Halted(); !ok || !strings.Contains(reason, "pass") {
				t.Fatalf("child did not finish: %v %q", ok, reason)
			}
			machinesEqual(t, "child-vs-cold", child, cold)
			machinesEqual(t, "parent-vs-cold", parent, cold)
		})
	}
}

// TestForkFamilyRunsConcurrently runs a parent and several forked children
// at the same time on separate goroutines, parent and children all
// breaking pages off the shared snapshot backing. Under -race this is the
// machine-level COW isolation gate; the end states must still all agree.
func TestForkFamilyRunsConcurrently(t *testing.T) {
	t.Run("seq", func(t *testing.T) {
		prog := forkProg(20000)
		parent := newTestMachine(t, 1)
		_ = parent.LoadImage(DramBase, prog)
		parent.Reset(DramBase)
		parent.Run(3000)

		const children = 4
		kids := make([]*Machine, children)
		for i := range kids {
			c, err := parent.Fork()
			if err != nil {
				t.Fatal(err)
			}
			kids[i] = c
		}
		var wg sync.WaitGroup
		run := func(m *Machine) {
			defer wg.Done()
			m.Run(500000)
		}
		wg.Add(children + 1)
		go run(parent)
		for _, c := range kids {
			go run(c)
		}
		wg.Wait()

		if ok, reason := parent.Halted(); !ok || !strings.Contains(reason, "pass") {
			t.Fatalf("parent: %v %q", ok, reason)
		}
		for i, c := range kids {
			if ok, reason := c.Halted(); !ok || !strings.Contains(reason, "pass") {
				t.Fatalf("child %d: %v %q", i, ok, reason)
			}
			machinesEqual(t, "sibling", kids[0], c)
		}
		machinesEqual(t, "parent-vs-child", parent, kids[0])
	})
}

// snapshotInTrap is a Monitor that tries to snapshot the machine from
// inside an M-trap handler, recording the outcome.
type snapshotInTrap struct {
	m    *Machine
	err  error
	img  *Image
	hits int
}

func (s *snapshotInTrap) HandleMTrap(h *Hart) {
	s.hits++
	s.img, s.err = s.m.Snapshot()
	h.Halted = true
	h.HaltReason = "monitor-done"
}

// TestSnapshotMidQuantumRefused: a snapshot taken from inside a monitor
// handler succeeds, since every store a hart makes reaches the bus before
// the handler runs.
func TestSnapshotMidQuantumRefused(t *testing.T) {
	a := asm.New(DramBase)
	a.Ecall()
	prog := a.MustAssemble()

	ms := newTestMachine(t, 1)
	mons := &snapshotInTrap{m: ms}
	ms.Harts[0].Monitor = mons
	_ = ms.LoadImage(DramBase, prog)
	ms.Reset(DramBase)
	ms.Run(100)
	if mons.hits == 0 || mons.err != nil {
		t.Fatalf("seq monitor snapshot: hits=%d err=%v", mons.hits, mons.err)
	}
}

// TestImageShapeMismatches checks LoadImageState's shape guards.
func TestImageShapeMismatches(t *testing.T) {
	m2 := newTestMachine(t, 2)
	img, err := m2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m1 := newTestMachine(t, 1)
	if err := m1.LoadImageState(img); err == nil {
		t.Fatal("hart-count mismatch must be rejected")
	}
	cfg := VisionFive2()
	cfg.HasIOPMP = true
	mi, err := NewMachine(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	img1, err := m2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img1.Harts = img1.Harts[:1]
	if err := mi.LoadImageState(img1); err == nil {
		t.Fatal("IOPMP mismatch must be rejected")
	}
}

// TestDMASnapshotRoundTrip is the DMA engine's table-driven
// snapshot→mutate→restore→state-equal coverage (its registers live in
// internal/hart, unlike the other devices').
func TestDMASnapshotRoundTrip(t *testing.T) {
	m := newTestMachine(t, 1)
	_ = m.Bus.WriteBytes(DramBase, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	for _, w := range []struct{ off, v uint64 }{
		{DMASrc, DramBase}, {DMADst, DramBase + 0x100}, {DMALen, 8},
	} {
		if !m.Bus.Store(DMABase+w.off, 8, w.v) {
			t.Fatalf("store %#x failed", w.off)
		}
	}
	snap := m.DMA.Checkpoint()
	// Mutate: trigger the copy (stat changes) and repoint the registers.
	m.Bus.Store(DMABase+DMACtl, 8, 1)
	m.Bus.Store(DMABase+DMASrc, 8, 0x999)
	m.Bus.Store(DMABase+DMALen, 8, 0x40)
	m.DMA.Restore(snap)
	if got := m.DMA.Checkpoint(); got != snap {
		t.Fatalf("DMA round-trip: got %+v want %+v", got, snap)
	}
	if v, _ := m.Bus.Load(DMABase+DMASrc, 8); v != DramBase {
		t.Fatalf("restored src = %#x", v)
	}
}
