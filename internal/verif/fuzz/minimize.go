package fuzz

import "govfm/internal/refmodel"

// Minimize shrinks a finding's test case while preserving *some*
// divergence (not necessarily the original one — a smaller case exposing a
// different symptom of the same bug is just as useful and usually more
// readable). It nops out instruction ranges by binary descent, then
// simplifies the starting state field by field, iterating to a fixpoint.
// Every candidate runs on the engine and its twin (runPair), so a
// fast-vs-interp finding shrinks like any other.
func Minimize(e, twin *Engine, f *Finding) *Finding {
	last := f
	diverges := func(tc *TestCase) bool {
		fd, _ := runPair(e, twin, tc)
		if fd != nil {
			last = fd
		}
		return fd != nil
	}
	minimizeWith(diverges, f.Case)
	return last
}

const nop = 0x13 // addi x0, x0, 0

// minimizeWith is the predicate-driven core: it mutates tc in place toward
// the smallest case for which diverges keeps returning true. diverges must
// be deterministic. Separated from Minimize so the descent algorithm is
// unit-testable against synthetic predicates.
func minimizeWith(diverges func(*TestCase) bool, tc *TestCase) {
	if !diverges(tc) {
		return // not reproducible; leave untouched
	}
	for round := 0; round < 3; round++ {
		changed := false
		if nopOutProgram(diverges, tc) {
			changed = true
		}
		if reduceState(diverges, tc) {
			changed = true
		}
		if !changed {
			break
		}
	}
}

// nopOutProgram replaces instruction ranges with nops, halving the chunk
// size down to single slots. Reports whether anything was removed.
func nopOutProgram(diverges func(*TestCase) bool, tc *TestCase) bool {
	changed := false
	for chunk := len(tc.Prog); chunk >= 1; chunk /= 2 {
		for lo := 0; lo < len(tc.Prog); lo += chunk {
			hi := lo + chunk
			if hi > len(tc.Prog) {
				hi = len(tc.Prog)
			}
			saved := make([]uint32, hi-lo)
			copy(saved, tc.Prog[lo:hi])
			allNop := true
			for i := lo; i < hi; i++ {
				if tc.Prog[i] != nop {
					allNop = false
				}
				tc.Prog[i] = nop
			}
			if allNop {
				continue
			}
			if diverges(tc) {
				changed = true
			} else {
				copy(tc.Prog[lo:hi], saved)
			}
		}
	}
	return changed
}

// reduceState tries field-by-field simplifications of the starting state,
// keeping each one only if the case still diverges.
func reduceState(diverges func(*TestCase) bool, tc *TestCase) bool {
	changed := false
	try := func(apply func(s *refmodel.State)) {
		saved := tc.State.Clone()
		apply(tc.State)
		if diverges(tc) {
			changed = true
		} else {
			tc.State = saved
		}
	}

	for i := 1; i < 32; i++ {
		i := i
		if tc.State.Regs[i] != 0 {
			try(func(s *refmodel.State) { s.Regs[i] = 0 })
		}
	}
	zeroFields := []func(s *refmodel.State) *uint64{
		func(s *refmodel.State) *uint64 { return &s.Medeleg },
		func(s *refmodel.State) *uint64 { return &s.Mie },
		func(s *refmodel.State) *uint64 { return &s.MipSW },
		func(s *refmodel.State) *uint64 { return &s.Mcause },
		func(s *refmodel.State) *uint64 { return &s.Scause },
		func(s *refmodel.State) *uint64 { return &s.Mtval },
		func(s *refmodel.State) *uint64 { return &s.Stval },
		func(s *refmodel.State) *uint64 { return &s.Mscratch },
		func(s *refmodel.State) *uint64 { return &s.Sscratch },
		func(s *refmodel.State) *uint64 { return &s.Mcounteren },
		func(s *refmodel.State) *uint64 { return &s.Scounteren },
		func(s *refmodel.State) *uint64 { return &s.Senvcfg },
		func(s *refmodel.State) *uint64 { return &s.Mseccfg },
		func(s *refmodel.State) *uint64 { return &s.Mcountinhibit },
		func(s *refmodel.State) *uint64 { return &s.Satp },
		func(s *refmodel.State) *uint64 { return &s.Stimecmp },
		func(s *refmodel.State) *uint64 { return &s.Hstatus },
		func(s *refmodel.State) *uint64 { return &s.Hedeleg },
		func(s *refmodel.State) *uint64 { return &s.Hideleg },
		func(s *refmodel.State) *uint64 { return &s.Hie },
		func(s *refmodel.State) *uint64 { return &s.Vsstatus },
		func(s *refmodel.State) *uint64 { return &s.Vsatp },
	}
	for _, fieldOf := range zeroFields {
		fieldOf := fieldOf
		if *fieldOf(tc.State) != 0 {
			try(func(s *refmodel.State) { *fieldOf(s) = 0 })
		}
	}
	if tc.State.Status.Bits() != refmodel.NewState().Status.Bits() {
		try(func(s *refmodel.State) { s.Status = refmodel.MstatusFromBits(0) })
	}
	if tc.State.Priv != refmodel.M {
		try(func(s *refmodel.State) { s.Priv = refmodel.M })
	}
	for _, f := range []func(s *refmodel.State) *uint64{
		func(s *refmodel.State) *uint64 { return &s.Mtvec },
		func(s *refmodel.State) *uint64 { return &s.Stvec },
		func(s *refmodel.State) *uint64 { return &s.Mepc },
		func(s *refmodel.State) *uint64 { return &s.Sepc },
	} {
		f := f
		if *f(tc.State) != ProgBase {
			try(func(s *refmodel.State) { *f(s) = ProgBase })
		}
	}
	for i := range tc.State.PmpCfg {
		i := i
		if tc.State.PmpCfg[i] != 0 || tc.State.PmpAddr[i] != 0 {
			try(func(s *refmodel.State) { s.PmpCfg[i], s.PmpAddr[i] = 0, 0 })
		}
	}
	for n, v := range tc.State.Custom {
		n, v := n, v
		if v != 0 {
			try(func(s *refmodel.State) { s.Custom[n] = 0 })
		}
	}
	if tc.State.PC != ProgBase {
		try(func(s *refmodel.State) { s.PC = ProgBase })
	}
	return changed
}
