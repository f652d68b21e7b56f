package hart

import (
	"strings"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/rv"
)

// TestWFILockupHalts: wfi with mie == 0 can never wake; the machine must
// detect the lockup and halt with a diagnostic rather than spin forever.
func TestWFILockupHalts(t *testing.T) {
	m, h := run(t, 10_000, func(a *asm.Asm) {
		a.Csrw(rv.CSRMie, asm.X0)
		a.Wfi()
		exit(a) // unreachable
	})
	halted, reason := m.Halted()
	if !halted {
		t.Fatal("machine did not halt on a hopeless wfi")
	}
	if !strings.Contains(reason, ErrLockup.Error()) {
		t.Errorf("halt reason %q does not name the lockup", reason)
	}
	if reason == "guest-exit-pass" {
		t.Error("the instruction after wfi must never execute")
	}
	if !h.Halted {
		t.Error("hart not marked halted")
	}
}

// TestWFIWithEnabledSourceDoesNotLockup: the lockup detector must not fire
// when a wakeup source is armed — here a timer interrupt that eventually
// pends and resumes execution (mstatus.MIE stays 0, so no trap is taken).
func TestWFIWithEnabledSourceDoesNotLockup(t *testing.T) {
	m, _ := run(t, 200_000, func(a *asm.Asm) {
		a.Li(asm.S1, ClintBase+0xBFF8)
		a.Ld(asm.T1, asm.S1, 0)
		a.Addi(asm.T1, asm.T1, 20)
		a.Li(asm.S2, ClintBase+0x4000)
		a.Sd(asm.T1, asm.S2, 0)
		a.Li(asm.T2, 1<<rv.IntMTimer)
		a.Csrw(rv.CSRMie, asm.T2)
		a.Wfi()
		exit(a)
	})
	mustHalt(t, m)
}

// TestWFIBatchWakesOnHvip: an enabled hvip source wakes a sleeping hart,
// as Hart.Step's wake rule says, although no mip bit pends; the WFI
// fast-forward must step it rather than batch idle polls.
func TestWFIBatchWakesOnHvip(t *testing.T) {
	img := asm.New(DramBase)
	img.Li(asm.T0, 1<<rv.IntVSSoft)
	img.Csrw(rv.CSRHie, asm.T0)
	img.Csrw(rv.CSRHvip, asm.T0)
	img.Li(asm.T0, 1<<rv.IntMTimer) // a wake source that never pends
	img.Csrw(rv.CSRMie, asm.T0)
	img.Wfi()
	exit(img)
	for _, sb := range []bool{false, true} {
		cfg := PremierP550() // the H extension
		cfg.Harts = 1
		m, err := NewMachine(cfg, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadImage(DramBase, img.MustAssemble()); err != nil {
			t.Fatal(err)
		}
		m.Reset(DramBase)
		m.SetSuperblock(sb)
		m.Run(1000)
		if ok, reason := m.Halted(); !ok || reason != "guest-exit-pass" {
			t.Fatalf("superblock=%v: halted=%v %q, want the hvip source to wake the hart",
				sb, ok, reason)
		}
	}
}
