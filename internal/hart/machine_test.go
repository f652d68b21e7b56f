package hart

import (
	"strings"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/rv"
)

func newTestMachine(t *testing.T, harts int) *Machine {
	t.Helper()
	cfg := VisionFive2()
	cfg.Harts = harts
	m, err := NewMachine(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExitFailDevice(t *testing.T) {
	m := newTestMachine(t, 1)
	a := asm.New(DramBase)
	a.Li(asm.T0, ExitBase)
	a.Li(asm.T1, uint64(7)<<16|ExitFail) // code 7
	a.Sd(asm.T1, asm.T0, 0)
	_ = m.LoadImage(DramBase, a.MustAssemble())
	m.Reset(DramBase)
	m.Run(100)
	ok, reason := m.Halted()
	if !ok || !strings.Contains(reason, "fail") || !strings.Contains(reason, "7") {
		t.Errorf("halted=%v reason=%q", ok, reason)
	}
}

func TestExitUnknownCode(t *testing.T) {
	m := newTestMachine(t, 1)
	a := asm.New(DramBase)
	a.Li(asm.T0, ExitBase)
	a.Li(asm.T1, 0x1234)
	a.Sd(asm.T1, asm.T0, 0)
	_ = m.LoadImage(DramBase, a.MustAssemble())
	m.Reset(DramBase)
	m.Run(100)
	ok, reason := m.Halted()
	if !ok || !strings.Contains(reason, "0x1234") {
		t.Errorf("halted=%v reason=%q", ok, reason)
	}
}

func TestRunUntil(t *testing.T) {
	m := newTestMachine(t, 1)
	a := asm.New(DramBase)
	a.Li(asm.S0, DramBase+0x1000)
	a.Li(asm.T0, 1)
	for i := 0; i < 50; i++ {
		a.Nop()
	}
	a.Sd(asm.T0, asm.S0, 0)
	a.Label("hang")
	a.J("hang")
	_ = m.LoadImage(DramBase, a.MustAssemble())
	m.Reset(DramBase)
	hit := m.RunUntil(func() bool {
		v, _ := m.Bus.Load(DramBase+0x1000, 8)
		return v == 1
	}, 10_000)
	if !hit {
		t.Error("RunUntil must observe the store")
	}
	// A condition that never holds returns false.
	if m.RunUntil(func() bool { return false }, 100) {
		t.Error("impossible condition must report false")
	}
}

func TestResetClearsState(t *testing.T) {
	m := newTestMachine(t, 2)
	h := m.Harts[1]
	h.Regs[5] = 42
	h.Waiting = true
	h.Halted = true
	m.halt("test")
	m.Reset(DramBase)
	if h.Regs[5] != 0 || h.Waiting || h.Halted {
		t.Error("reset must clear hart state")
	}
	if h.Regs[10] != 1 {
		t.Error("a0 must hold the hart id")
	}
	if ok, _ := m.Halted(); ok {
		t.Error("reset must clear the halt latch")
	}
}

func TestDMAErrorStatus(t *testing.T) {
	m := newTestMachine(t, 1)
	d := m.DMA
	// Copy from unmapped memory: status 1.
	d.Store(DMASrc, 8, 0x4000_0000)
	d.Store(DMADst, 8, DramBase)
	d.Store(DMALen, 8, 16)
	d.Store(DMACtl, 8, 0)
	if st, _ := d.Load(DMAStat, 8); st != 1 {
		t.Errorf("status = %d, want 1 (bus error)", st)
	}
	// Copy into a device region: also an error.
	d.Store(DMASrc, 8, DramBase)
	d.Store(DMADst, 8, ClintBase)
	d.Store(DMACtl, 8, 0)
	if st, _ := d.Load(DMAStat, 8); st != 1 {
		t.Errorf("status = %d, want 1", st)
	}
	// Register access constraints.
	if _, ok := d.Load(DMASrc, 4); ok {
		t.Error("4-byte DMA register access must fail")
	}
	if d.Store(0x99, 8, 0) {
		t.Error("unknown register must fail")
	}
	if d.Name() != "dma" {
		t.Error("name")
	}
}

func TestTimeAdvancesAcrossHarts(t *testing.T) {
	m := newTestMachine(t, 2)
	a := asm.New(DramBase)
	for i := 0; i < 2000; i++ {
		a.Nop()
	}
	a.Li(asm.T0, ExitBase)
	a.Li(asm.T1, ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	_ = m.LoadImage(DramBase, a.MustAssemble())
	m.Reset(DramBase)
	m.Run(3000)
	if m.Clint.Time() == 0 {
		t.Error("mtime must advance from consumed cycles")
	}
	// Both harts ran in lockstep.
	if m.Harts[0].Instret == 0 || m.Harts[1].Instret == 0 {
		t.Error("both harts must retire instructions")
	}
}

// bootResetProg dirties everything Reset must clear — a CSR, a locked PMP
// entry, an LR reservation, the CLINT comparator, the UART — then exits.
func bootResetProg() []byte {
	a := asm.New(DramBase)
	a.Li(asm.T0, 0xDEAD)
	a.Csrw(rv.CSRMscratch, asm.T0)
	// Lock PMP entry 0 over all of memory (NAPOT, L|X|W|R): only a reset
	// can clear a locked entry, so a weak Reset leaves it behind.
	a.Li(asm.T0, rv.Mask(53))
	a.Csrw(rv.CSRPmpaddr0, asm.T0)
	a.Li(asm.T0, 0x9F)
	a.Csrw(rv.CSRPmpcfg0, asm.T0)
	// Take an LR reservation.
	a.Li(asm.S0, DramBase+0x6000)
	a.LrD(asm.T1, asm.S0)
	// Program mtimecmp[0] and print one byte.
	a.Li(asm.T0, ClintBase+0x4000)
	a.Li(asm.T1, 123)
	a.Sd(asm.T1, asm.T0, 0)
	a.Li(asm.T0, UartBase)
	a.Li(asm.T1, 'A')
	a.Sb(asm.T1, asm.T0, 0)
	a.Li(asm.T0, ExitBase)
	a.Li(asm.T1, ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	return a.MustAssemble()
}

// TestResetFullMachineState is the boot-twice regression for the Reset
// bugfix: a second boot after Reset must be indistinguishable from the
// first — CSRs (including locked PMP entries), cycle counters, LR/SC
// reservations, and device state must all return to power-on values.
func TestResetFullMachineState(t *testing.T) {
	m := newTestMachine(t, 1)
	_ = m.LoadImage(DramBase, bootResetProg())
	m.Reset(DramBase)
	m.Run(1000)
	if ok, reason := m.Halted(); !ok || !strings.Contains(reason, "pass") {
		t.Fatalf("first boot: halted=%v reason=%q", ok, reason)
	}
	h := m.Harts[0]
	firstCycles, firstInstret := h.Cycles, h.Instret
	firstOut := m.Uart.Output()
	if firstOut != "A" {
		t.Fatalf("first boot uart = %q, want %q", firstOut, "A")
	}

	m.Reset(DramBase)

	if ok, _ := m.Halted(); ok {
		t.Error("reset must clear the machine halt latch")
	}
	if h.Cycles != 0 || h.Instret != 0 || h.SInstret != 0 {
		t.Errorf("reset left counters: cycles=%d instret=%d sinstret=%d",
			h.Cycles, h.Instret, h.SInstret)
	}
	if h.CSR.Mscratch != 0 {
		t.Errorf("reset left mscratch = %#x", h.CSR.Mscratch)
	}
	if h.CSR.PMP.Cfg(0) != 0 || h.CSR.PMP.Addr(0) != 0 {
		t.Errorf("reset left locked PMP entry: cfg=%#x addr=%#x",
			h.CSR.PMP.Cfg(0), h.CSR.PMP.Addr(0))
	}
	if h.resValid {
		t.Error("reset left an LR reservation")
	}
	if m.Clint.Time() != 0 {
		t.Errorf("reset left mtime = %d", m.Clint.Time())
	}
	if m.Clint.Mtimecmp(0) != ^uint64(0) {
		t.Errorf("reset left mtimecmp = %#x", m.Clint.Mtimecmp(0))
	}
	if m.Uart.Output() != "" {
		t.Errorf("reset left uart output %q", m.Uart.Output())
	}

	// Second boot: bit-identical to the first.
	m.Run(1000)
	if ok, reason := m.Halted(); !ok || !strings.Contains(reason, "pass") {
		t.Fatalf("second boot: halted=%v reason=%q", ok, reason)
	}
	if h.Cycles != firstCycles || h.Instret != firstInstret {
		t.Errorf("second boot diverged: cycles %d vs %d, instret %d vs %d",
			h.Cycles, firstCycles, h.Instret, firstInstret)
	}
	if m.Uart.Output() != firstOut {
		t.Errorf("second boot uart = %q, want %q", m.Uart.Output(), firstOut)
	}
}

// ipiProg builds a two-hart program where hart sender posts an MSIP IPI to
// hart receiver, which sleeps in WFI and raises a flag at flagAddr on wake.
func ipiProg(sender, receiver int, flagAddr uint64) []byte {
	a := asm.New(DramBase)
	a.Li(asm.T0, uint64(sender))
	a.BeqFar(asm.A0, asm.T0, "sender")
	// Receiver: enable MSIE, sleep, flag, hang.
	a.Li(asm.T0, 1<<rv.IntMSoft)
	a.Csrw(rv.CSRMie, asm.T0)
	a.Wfi()
	a.Li(asm.S0, flagAddr)
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.S0, 0)
	a.Label("hang")
	a.J("hang")
	a.Label("sender")
	for i := 0; i < 8; i++ {
		a.Nop()
	}
	a.Li(asm.T1, ClintBase+uint64(4*receiver))
	a.Li(asm.T2, 1)
	a.Sw(asm.T2, asm.T1, 0)
	a.Label("shang")
	a.J("shang")
	return a.MustAssemble()
}

// runIPI boots ipiProg and returns the receiver's cycle count at the
// moment the wake flag becomes visible.
func runIPI(t *testing.T, sender, receiver int) uint64 {
	t.Helper()
	const flagAddr = DramBase + 0x3000
	m := newTestMachine(t, 2)
	_ = m.LoadImage(DramBase, ipiProg(sender, receiver, flagAddr))
	m.Reset(DramBase)
	ok := m.RunUntil(func() bool {
		v, _ := m.Bus.Load(flagAddr, 8)
		return v == 1
	}, 100_000)
	if !ok {
		t.Fatalf("sender=%d: receiver never woke from the IPI", sender)
	}
	return m.Harts[receiver].Cycles
}

// TestIPIDeliverySymmetric is the regression for the interrupt-latch
// bugfix: hart 1's IPI to hart 0 must be observed with exactly the same
// latency as hart 0's IPI to hart 1. Before the fix the sequential
// scheduler latched hart lines asymmetrically within a machine step.
func TestIPIDeliverySymmetric(t *testing.T) {
	t.Run("seq", func(t *testing.T) {
		c01 := runIPI(t, 0, 1)
		c10 := runIPI(t, 1, 0)
		if c01 != c10 {
			t.Errorf("asymmetric IPI latency: hart0→hart1 woke at %d cycles, hart1→hart0 at %d",
				c01, c10)
		}
	})
}

// wfiTimerProg arms each hart's own mtimecmp at a small tick count, sleeps
// in WFI on MTIE, and raises a per-hart flag on wake.
func wfiTimerProg(flagBase uint64) []byte {
	a := asm.New(DramBase)
	a.Li(asm.T0, ClintBase+0x4000)
	a.Slli(asm.T1, asm.A0, 3)
	a.Add(asm.T0, asm.T0, asm.T1)
	a.Li(asm.T2, 5)
	a.Sd(asm.T2, asm.T0, 0) // mtimecmp[id] = 5 ticks
	a.Li(asm.T0, 1<<rv.IntMTimer)
	a.Csrw(rv.CSRMie, asm.T0)
	a.Wfi()
	a.Li(asm.S0, flagBase)
	a.Slli(asm.T1, asm.A0, 3)
	a.Add(asm.S0, asm.S0, asm.T1)
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.S0, 0)
	a.Label("hang")
	a.J("hang")
	return a.MustAssemble()
}

// TestAllHartsWFIAdvancesTime checks that mtime keeps advancing when every
// hart is asleep in WFI: with all harts waiting on their timers the idle
// polls must still drive the shared wall clock forward until the
// comparators fire.
func TestAllHartsWFIAdvancesTime(t *testing.T) {
	const flagBase = DramBase + 0x5000
	t.Run("seq", func(t *testing.T) {
		m := newTestMachine(t, 2)
		_ = m.LoadImage(DramBase, wfiTimerProg(flagBase))
		m.Reset(DramBase)
		ok := m.RunUntil(func() bool {
			a, _ := m.Bus.Load(flagBase, 8)
			b, _ := m.Bus.Load(flagBase+8, 8)
			return a == 1 && b == 1
		}, 1_000_000)
		if !ok {
			t.Fatalf("harts never woke: mtime=%d (all-WFI must still advance time)",
				m.Clint.Time())
		}
		if m.Clint.Time() < 5 {
			t.Errorf("mtime = %d after both timers fired, want >= 5", m.Clint.Time())
		}
	})
}

// lrscProg: a full handshake proving the cross-hart store lands between
// the LR and the SC. Hart 0 takes an LR reservation on a shared
// doubleword and raises reserved; hart 1 waits for reserved, stores to the
// reserved doubleword, and raises stored; hart 0 waits for stored, then
// attempts the SC and records its result.
func lrscProg(shared, reserved, stored, result uint64) []byte {
	a := asm.New(DramBase)
	a.BnezFar(asm.A0, "hart1")
	a.Li(asm.S0, shared)
	a.LrD(asm.T0, asm.S0)
	a.Li(asm.S1, reserved)
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.S1, 0)
	a.Li(asm.S1, stored)
	a.Label("wait0")
	a.Ld(asm.T1, asm.S1, 0)
	a.Beqz(asm.T1, "wait0")
	a.ScD(asm.T2, asm.S0, asm.T0)
	a.Li(asm.S1, result)
	a.Sd(asm.T2, asm.S1, 0)
	a.Li(asm.T0, ExitBase)
	a.Li(asm.T1, ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	a.Label("hart1")
	a.Li(asm.S1, reserved)
	a.Label("wait1")
	a.Ld(asm.T1, asm.S1, 0)
	a.Beqz(asm.T1, "wait1")
	a.Li(asm.S0, shared)
	a.Li(asm.T0, 99)
	a.Sd(asm.T0, asm.S0, 0)
	a.Li(asm.S1, stored)
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.S1, 0)
	a.Label("hang")
	a.J("hang")
	return a.MustAssemble()
}

// TestCrossHartStoreKillsReservation is the regression for the cross-hart
// LR/SC bugfix: another hart's store to the reserved doubleword must
// invalidate the reservation, so the SC fails.
func TestCrossHartStoreKillsReservation(t *testing.T) {
	const (
		shared   = DramBase + 0x4000
		reserved = DramBase + 0x4008
		stored   = DramBase + 0x4010
		result   = DramBase + 0x4018
	)
	t.Run("seq", func(t *testing.T) {
		m := newTestMachine(t, 2)
		_ = m.LoadImage(DramBase, lrscProg(shared, reserved, stored, result))
		m.Reset(DramBase)
		m.Run(100_000)
		if ok, reason := m.Halted(); !ok || !strings.Contains(reason, "pass") {
			t.Fatalf("halted=%v reason=%q", ok, reason)
		}
		sc, _ := m.Bus.Load(result, 8)
		if sc == 0 {
			t.Error("SC succeeded despite a cross-hart store to the reserved doubleword")
		}
		v, _ := m.Bus.Load(shared, 8)
		if v != 99 {
			t.Errorf("shared doubleword = %d, want hart 1's store (99) to survive", v)
		}
	})
}

// TestParRunSmoke checks the ordinary Run entry point end to end on a
// four-hart machine: a program whose hart 0 halts through the exit device
// while the others spin reaches the pass verdict.
func TestParRunSmoke(t *testing.T) {
	a := asm.New(DramBase)
	a.BnezFar(asm.A0, "hang")
	for i := 0; i < 40; i++ {
		a.Nop()
	}
	a.Li(asm.T0, ExitBase)
	a.Li(asm.T1, ExitPass)
	a.Sd(asm.T1, asm.T0, 0)
	a.Label("hang")
	a.J("hang")
	prog := a.MustAssemble()

	t.Run("seq", func(t *testing.T) {
		m := newTestMachine(t, 4)
		_ = m.LoadImage(DramBase, prog)
		m.Reset(DramBase)
		m.Run(100_000)
		if ok, reason := m.Halted(); !ok || !strings.Contains(reason, "pass") {
			t.Errorf("halted=%v reason=%q", ok, reason)
		}
	})
}
