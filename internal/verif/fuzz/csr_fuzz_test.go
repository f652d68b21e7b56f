package fuzz

// Native Go fuzz target for the CSR access path: one fuzzer-chosen CSR
// instruction (drawn from the generator's own CSR surface, so the access
// respects the documented lockstep constraints) runs as a complete
// single-instruction lockstep case — native hart, monitor-virtualized
// hart, and reference model must agree on the result, including the
// illegal-instruction and privilege-trap outcomes.

import (
	"math/rand"
	"testing"

	"govfm/internal/asm"
	"govfm/internal/refmodel"
	"govfm/internal/rv"
)

// csrForms maps each generator form bit to its SYSTEM funct3 and whether
// the operand is a register (rs1) or an immediate (zimm) — mirroring what
// asm.Generate emits for that form.
var csrForms = []struct {
	form asm.CSRForm
	f3   uint32
	imm  bool
}{
	{asm.FormCsrrw, rv.F3Csrrw, false},
	{asm.FormCsrrs, rv.F3Csrrs, false},
	{asm.FormCsrrc, rv.F3Csrrc, false},
	{asm.FormCsrrwi, rv.F3Csrrwi, true},
	{asm.FormCsrrsi, rv.F3Csrrsi, true},
	{asm.FormCsrrci, rv.F3Csrrci, true},
	{asm.FormRead, rv.F3Csrrs, false}, // csrrs rd, csr, x0
}

// buildCSRCase assembles a single-instruction test case from raw fuzz
// selectors. The CSR and access form always come from the generator's
// spec list, so the case stays inside the engine's symmetric envelope.
func buildCSRCase(e *Engine, csrSel, formSel, rd, rs1, privSel uint8, val uint64) *TestCase {
	spec := e.GenCfg.CSRs[int(csrSel)%len(e.GenCfg.CSRs)]
	var allowed []int
	for i, fm := range csrForms {
		if spec.Forms&fm.form != 0 {
			allowed = append(allowed, i)
		}
	}
	fm := csrForms[allowed[int(formSel)%len(allowed)]]

	rdN := uint32(rd) & 31
	rs1N := uint32(rs1) & 31
	if fm.form == asm.FormRead {
		rs1N = 0
	}
	word := uint32(spec.CSR)<<20 | rs1N<<15 | fm.f3<<12 | rdN<<7 | rv.OpSystem

	s := refmodel.NewState()
	for i := 1; i < 32; i++ {
		s.Regs[i] = val ^ uint64(i)*0x9E3779B97F4A7C15
	}
	if !fm.imm {
		s.Regs[rs1N] = val
	}
	s.Priv = []uint8{refmodel.M, refmodel.S, refmodel.U}[int(privSel)%3]
	s.PC = ProgBase
	tc := &TestCase{Profile: e.Profile, Prog: []uint32{word}, State: s}
	e.canonicalize(tc)
	return tc
}

func checkCSRAccess(t *testing.T, csrSel, formSel, rd, rs1, privSel uint8, val uint64) {
	t.Helper()
	e, _, err := cachedPair("visionfive2")
	if err != nil {
		t.Fatal(err)
	}
	tc := buildCSRCase(e, csrSel, formSel, rd, rs1, privSel, val)
	if f, _ := e.Run(tc); f != nil {
		t.Fatalf("CSR access diverges (csr=%#x word=%#08x priv=%d):\n%s",
			tc.Prog[0]>>20, tc.Prog[0], tc.State.Priv, f)
	}
}

func FuzzCSRAccess(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(5), uint8(6), uint8(0), uint64(0))          // csrrw on mstatus, M-mode
	f.Add(uint8(0), uint8(1), uint8(7), uint8(8), uint8(1), ^uint64(0))         // csrrs all-ones from S-mode
	f.Add(uint8(3), uint8(0), uint8(1), uint8(2), uint8(0), uint64(0x222))      // mideleg set-form
	f.Add(uint8(20), uint8(3), uint8(10), uint8(31), uint8(2), uint64(1)<<63)   // U-mode access
	f.Add(uint8(36), uint8(0), uint8(9), uint8(0), uint8(0), uint64(0xFFFFFFF)) // pmp surface
	f.Add(uint8(255), uint8(255), uint8(0), uint8(0), uint8(255), uint64(0x5A)) // selector wraparound, rd=x0
	f.Fuzz(checkCSRAccess)
}

// TestCSRAccessMatchesModel sweeps every generator CSR spec through every
// allowed access form at all three privileges with a few data patterns, so
// the whole CSR surface is differentially exercised on plain `go test`.
func TestCSRAccessMatchesModel(t *testing.T) {
	e, _, err := cachedPair("visionfive2")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seedFlag))
	vals := []uint64{0, ^uint64(0), 0x222, ScratchBase | 5, rng.Uint64(), rng.Uint64()}
	if testing.Short() {
		vals = vals[:3]
	}
	for ci := range e.GenCfg.CSRs {
		nforms := 0
		for _, fm := range csrForms {
			if e.GenCfg.CSRs[ci].Forms&fm.form != 0 {
				nforms++
			}
		}
		// formSel indexes the spec's allowed-forms list, so 0..nforms-1
		// covers every form this CSR admits.
		for fi := 0; fi < nforms; fi++ {
			for priv := uint8(0); priv < 3; priv++ {
				for _, v := range vals {
					rd, rs1 := uint8(rng.Intn(32)), uint8(rng.Intn(32))
					checkCSRAccess(t, uint8(ci), uint8(fi), rd, rs1, priv, v)
					if t.Failed() {
						t.Fatalf("csr spec %d form %d priv %d (seed %d)", ci, fi, priv, *seedFlag)
					}
				}
			}
		}
	}
}
