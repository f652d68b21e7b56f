package rv

import (
	"math/rand"
	"testing"
)

// TestDecodeFields checks Decode against the individual field accessors on
// random words, including the per-format immediates.
func TestDecodeFields(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		raw := rng.Uint32()
		d := Decode(raw)
		if d.Raw != raw || d.Op != OpcodeOf(raw) || d.Rd != RdOf(raw) ||
			d.Rs1 != Rs1Of(raw) || d.Rs2 != Rs2Of(raw) ||
			d.F3 != Funct3Of(raw) || d.F7 != Funct7Of(raw) {
			t.Fatalf("Decode(%#x): field mismatch: %+v", raw, d)
		}
		var want uint64
		switch d.Op {
		case OpLui, OpAuipc:
			want = ImmU(raw)
		case OpJal:
			want = ImmJ(raw)
		case OpJalr, OpLoad, OpImm, OpImm32:
			want = ImmI(raw)
		case OpBranch:
			want = ImmB(raw)
		case OpStore:
			want = ImmS(raw)
		}
		if d.Imm != want {
			t.Fatalf("Decode(%#x): imm = %#x, want %#x", raw, d.Imm, want)
		}
	}
}

// TestDecodeKnownWords spot-checks a few hand-assembled encodings.
func TestDecodeKnownWords(t *testing.T) {
	// addi x1, x2, -3
	d := Decode(0xFFD10093)
	if d.Op != OpImm || d.Rd != 1 || d.Rs1 != 2 || d.Imm != ^uint64(2) {
		t.Fatalf("addi decode: %+v", d)
	}
	// ecall
	d = Decode(InstrEcall)
	if d.Op != OpSystem || d.F3 != F3Priv || d.Raw != InstrEcall {
		t.Fatalf("ecall decode: %+v", d)
	}
}
