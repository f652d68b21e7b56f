package hart

import (
	"fmt"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/dev/clint"
	"govfm/internal/rv"
)

// Multi-hart sequential rounds (Machine.seqRound). Each test runs a
// multi-hart program on the interpreter and on the full stack and requires
// identical end states, mtime included, with at least one round on the
// full stack. Programs branch on the hart ID, so every hart runs its own
// part of one shared image.

// roundPair runs body on an n-hart interpreter and full-stack machine to
// the exit device, compares them, and returns the full machine.
func roundPair(t *testing.T, harts int, body func(a *asm.Asm), steps uint64) *Machine {
	t.Helper()
	interp := sbMachineN(t, harts, body, false, false)
	full := sbMachineN(t, harts, body, true, true)
	for _, m := range []*Machine{interp, full} {
		m.Run(steps)
		mustHalt(t, m)
	}
	sbCompareEnd(t, interp, full)
	if sbRounds(full) == 0 {
		t.Fatal("no multi-hart round ran")
	}
	return full
}

// sbRounds sums the harts' round counters.
func sbRounds(m *Machine) (n uint64) {
	for _, h := range m.Harts {
		n += h.Perf.SBRounds
	}
	return n
}

// branchHart jumps to label on every hart but hart id.
func branchHart(a *asm.Asm, id uint64, label string) {
	a.Csrr(asm.T0, rv.CSRMhartid)
	a.Li(asm.T1, id)
	a.Bne(asm.T0, asm.T1, label)
}

// storeOnLastPass emits the body of a counted store loop: s1 counts down,
// and the store of t2 goes to the word at t1 on every pass but the last,
// which stores to t1+t0. The address is computed, so the whole loop is one
// block whose last pass patches its target in mid-round.
func storeOnLastPass(a *asm.Asm, store func(rs2, rs1 int, imm int64)) {
	a.Addi(asm.S1, asm.S1, -1)
	a.Sltiu(asm.T3, asm.S1, 1) // 1 on the last pass
	a.Sub(asm.T3, asm.X0, asm.T3)
	a.And(asm.T4, asm.T0, asm.T3)
	a.Add(asm.T4, asm.T4, asm.T1)
	store(asm.T2, asm.T4, 0)
}

// roundPatchBody: the victim counts passes of a loop whose long block ends
// in "addi a0,a0,1"; the writer runs n passes of a store loop whose last
// pass, inside a round, patches that slot to "addi a0,a0,100". The victim
// must execute the new encoding from the very step the interpreter does —
// the same step when the writer's ID is lower, the next when it is higher.
func roundPatchBody(patched uint32, writer, n uint64) func(a *asm.Asm) {
	return func(a *asm.Asm) {
		branchHart(a, writer, "victim")
		a.La(asm.T0, "target")
		a.Li(asm.T1, DramBase+0x20000) // a data word off the code page
		a.Sub(asm.T0, asm.T0, asm.T1)
		a.Li(asm.T2, uint64(patched))
		a.Li(asm.S1, n)
		a.Label("wloop")
		storeOnLastPass(a, a.Sw)
		a.Bnez(asm.S1, "wloop")
		a.Label("spin")
		a.J("spin")

		a.Label("victim")
		a.Li(asm.A0, 0)
		a.Li(asm.S1, 120)
		a.Label("vloop")
		for i := 0; i < 6; i++ {
			a.Addi(asm.A1, asm.A1, 1)
		}
		a.Label("target")
		a.Addi(asm.A0, asm.A0, 1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "vloop")
		exit(a)
	}
}

// TestRoundCrossHartCodePatch: a code patch by another hart inside a round
// ends the victim's block at its next turn, with the writer both below and
// above the victim's hart ID. The writer's pass count is swept so the patch
// lands on every op of the victim's block.
func TestRoundCrossHartCodePatch(t *testing.T) {
	patched := encodeOne(t, func(a *asm.Asm) { a.Addi(asm.A0, asm.A0, 100) })
	for _, writer := range []uint64{0, 1} {
		for n := uint64(40); n < 49; n++ {
			t.Run(fmt.Sprintf("writer%d/%d", writer, n), func(t *testing.T) {
				full := roundPair(t, 2, roundPatchBody(patched, writer, n), 5000)
				v := full.Harts[1-writer]
				if a0 := v.Regs[asm.A0]; a0 < 100 || a0 >= 100*120 {
					t.Fatalf("victim a0 = %d: the patch did not land mid-loop", a0)
				}
				if v.Perf.CodeWriteInvalidations == 0 {
					t.Fatal("the patch never dropped the victim's code")
				}
			})
		}
	}
}

// TestRoundMtimeLoadAbort: an MMIO load of mtime in hart 1's block aborts
// the round after both harts' ops have consumed cycles; the interpreter
// that redoes the load must read the clock those cycles advanced. The
// loaded values are summed, so one stale read diverges.
func TestRoundMtimeLoadAbort(t *testing.T) {
	body := func(a *asm.Asm) {
		branchHart(a, 0, "loader")
		a.Li(asm.S1, 3000)
		a.Label("loop0")
		a.Addi(asm.A0, asm.A0, 3)
		a.Xor(asm.A1, asm.A0, asm.S1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "loop0")
		exit(a)

		a.Label("loader")
		a.Li(asm.S2, ClintBase+clint.MtimeOff)
		a.Label("loop1")
		for i := 0; i < 5; i++ {
			a.Addi(asm.A1, asm.A1, 1)
		}
		a.Ld(asm.T1, asm.S2, 0)
		a.Add(asm.A2, asm.A2, asm.T1)
		a.J("loop1")
	}
	full := roundPair(t, 2, body, 50000)
	h := full.Harts[1]
	if h.Regs[asm.A2] == 0 || h.Perf.SBAborts == 0 {
		t.Fatalf("mtime sum %d, %d aborts: the load never aborted a block",
			h.Regs[asm.A2], h.Perf.SBAborts)
	}
}

// TestRoundStoreKillsReservation: hart 1's in-block store, inside a round,
// kills the LR reservation hart 0 holds across its delay loop, so hart 0's
// SC fails exactly as under the interpreter.
func TestRoundStoreKillsReservation(t *testing.T) {
	const reserved, dummy = DramBase + 0x20100, DramBase + 0x20000
	body := func(a *asm.Asm) {
		branchHart(a, 0, "storer")
		a.Li(asm.S2, reserved)
		a.LrD(asm.T1, asm.S2)
		a.Li(asm.S1, 300)
		a.Label("delay")
		a.Addi(asm.A1, asm.A1, 1)
		a.Addi(asm.S1, asm.S1, -1)
		a.Bnez(asm.S1, "delay")
		a.Li(asm.T2, 5)
		a.ScD(asm.A0, asm.S2, asm.T2) // a0 = 0 on success
		exit(a)

		a.Label("storer")
		a.Li(asm.T0, reserved-dummy)
		a.Li(asm.T1, dummy)
		a.Li(asm.T2, 99)
		a.Li(asm.S1, 60)
		a.Label("sloop")
		storeOnLastPass(a, a.Sd)
		a.Bnez(asm.S1, "sloop")
		a.Label("spin")
		a.J("spin")
	}
	full := roundPair(t, 2, body, 5000)
	if full.Harts[0].Regs[asm.A0] == 0 {
		t.Fatal("SC succeeded: the in-round store never killed the reservation")
	}
}

// TestRoundEntryAtOwnTurn: hart 1 leaves its delay loop for a page whose
// leaf PTE has the A bit clear, so its fetch walk stores the A bit; hart 0
// sums loads of that PTE in a hot loop. Hart 0 must see the walk's store
// from the step after it, as under the interpreter: a hart's fetch, walk
// and block entry happen at its own turn, after every lower hart's op of
// the step. A sweep of nops before hart 1's loop lands the walk on every op
// of hart 0's loop.
func TestRoundEntryAtOwnTurn(t *testing.T) {
	const farVA = testVA + 0x1000 // ptL0 slot 1
	for pad := 0; pad < 4; pad++ {
		t.Run(fmt.Sprint(pad), func(t *testing.T) {
			var farPA uint64
			body := func(a *asm.Asm) {
				a.Li(asm.T0, ptL0+8)
				a.La(asm.T1, "far")
				a.Srli(asm.T1, asm.T1, 12)
				a.Slli(asm.T1, asm.T1, 10)
				a.Ori(asm.T1, asm.T1, pteV|1<<1|1<<3) // V R X, A and D clear
				a.Sd(asm.T1, asm.T0, 0)
				sv39Prologue(a)
				a.Label("smain")
				a.Bnez(asm.A0, "h1") // a0 = hart ID since reset
				a.Li(asm.S2, ptL0+8) // through the identity gigapage
				a.Li(asm.S1, 400)
				a.Label("loop0")
				a.Ld(asm.T0, asm.S2, 0)
				a.Add(asm.A1, asm.A1, asm.T0)
				a.Addi(asm.S1, asm.S1, -1)
				a.Bnez(asm.S1, "loop0")
				a.Ecall()

				a.Label("h1")
				for i := 0; i < pad; i++ {
					a.Nop()
				}
				a.Li(asm.S1, 60)
				a.Label("loop1")
				a.Addi(asm.A2, asm.A2, 1)
				a.Addi(asm.S1, asm.S1, -1)
				a.Bnez(asm.S1, "loop1")
				a.Li(asm.T0, farVA)
				a.Jr(asm.T0)
				a.Label("mtrap")
				exit(a)

				a.Align(4096)
				farPA = a.PC()
				a.Label("far")
				a.Addi(asm.A3, asm.A3, 1)
				a.J("far")
			}
			full := roundPair(t, 2, body, 20000)
			if pte, _ := full.Bus.Load(ptL0+8, 8); pte&(1<<6) == 0 || pte>>10<<12 != farPA {
				t.Fatalf("far PTE %#x: hart 1 never fetched through it", pte)
			}
			if full.Harts[1].Regs[asm.A3] == 0 {
				t.Fatal("hart 1 never ran the far page")
			}
		})
	}
}

// TestRoundIdleHartCharged: hart 1 sleeps in WFI with an interrupt enabled
// that never pends, while hart 0 runs its loop in rounds. Every round step
// charges hart 1 one idle poll, and the clock the poll's cost.
func TestRoundIdleHartCharged(t *testing.T) {
	body := func(a *asm.Asm) {
		branchHart(a, 0, "sleeper")
		hotLoopBody(2000)(a)

		a.Label("sleeper")
		a.Li(asm.T0, 1<<rv.IntMSoft)
		a.Csrw(rv.CSRMie, asm.T0)
		a.Wfi()
		a.Label("woke")
		a.J("woke")
	}
	full := roundPair(t, 2, body, 20000)
	h := full.Harts[1]
	if !h.Waiting || h.Cycles < 2000*h.Cfg.Cost.WFIIdle {
		t.Fatalf("hart 1 waiting=%v cycles=%d: it did not sleep through the loop", h.Waiting, h.Cycles)
	}
}
