package asm

import (
	"encoding/binary"
	"testing"

	"govfm/internal/rv"
)

func word(t *testing.T, img []byte, i int) uint32 {
	t.Helper()
	return binary.LittleEndian.Uint32(img[4*i:])
}

func TestRTypeEncoding(t *testing.T) {
	a := New(0x8000_0000)
	a.Add(A0, A1, A2)
	a.Sub(T0, T1, T2)
	a.Mul(S0, S1, S2)
	img := a.MustAssemble()

	w := word(t, img, 0)
	if rv.OpcodeOf(w) != rv.OpReg || rv.RdOf(w) != A0 || rv.Rs1Of(w) != A1 ||
		rv.Rs2Of(w) != A2 || rv.Funct3Of(w) != 0 || rv.Funct7Of(w) != 0 {
		t.Errorf("add encoding %#x", w)
	}
	w = word(t, img, 1)
	if rv.Funct7Of(w) != 0x20 {
		t.Errorf("sub funct7 %#x", rv.Funct7Of(w))
	}
	w = word(t, img, 2)
	if rv.Funct7Of(w) != 1 {
		t.Errorf("mul funct7 %#x", rv.Funct7Of(w))
	}
}

func TestITypeImmediates(t *testing.T) {
	a := New(0)
	a.Addi(A0, A1, -1)
	a.Addi(A0, A1, 2047)
	a.Addi(A0, A1, -2048)
	img := a.MustAssemble()
	for i, want := range []uint64{^uint64(0), 2047, rv.SignExtend(0x800, 12)} {
		if got := rv.ImmI(word(t, img, i)); got != want {
			t.Errorf("imm %d: got %#x want %#x", i, got, want)
		}
	}
	b := New(0)
	b.Addi(A0, A1, 2048)
	if _, err := b.Assemble(); err == nil {
		t.Error("out-of-range immediate must error")
	}
}

func TestStoreEncoding(t *testing.T) {
	a := New(0)
	a.Sd(A0, SP, -16)
	img := a.MustAssemble()
	w := word(t, img, 0)
	if rv.OpcodeOf(w) != rv.OpStore || rv.Funct3Of(w) != 3 ||
		rv.Rs1Of(w) != SP || rv.Rs2Of(w) != A0 {
		t.Errorf("sd fields %#x", w)
	}
	if rv.ImmS(w) != rv.SignExtend(0xFF0, 12) {
		t.Errorf("sd imm %#x", rv.ImmS(w))
	}
}

func TestBranchFixups(t *testing.T) {
	a := New(0x1000)
	a.Label("top")
	a.Nop()
	a.Beq(A0, A1, "top")     // backward: offset -4
	a.Bne(A0, A1, "forward") // forward: offset +8
	a.Nop()
	a.Label("forward")
	img := a.MustAssemble()
	if got := rv.ImmB(word(t, img, 1)); got != rv.SignExtend(0x1FFC, 13) {
		t.Errorf("backward branch imm %#x", got)
	}
	if got := rv.ImmB(word(t, img, 2)); got != 8 {
		t.Errorf("forward branch imm %#x", got)
	}
}

func TestJalFixup(t *testing.T) {
	a := New(0x2000)
	a.Jal(RA, "func")
	a.Nop()
	a.Label("func")
	img := a.MustAssemble()
	if got := rv.ImmJ(word(t, img, 0)); got != 8 {
		t.Errorf("jal imm %d", got)
	}
	if rv.RdOf(word(t, img, 0)) != RA {
		t.Error("jal rd")
	}
}

func TestUndefinedLabelErrors(t *testing.T) {
	a := New(0)
	a.J("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Error("undefined label must error")
	}
}

func TestDuplicateLabelErrors(t *testing.T) {
	a := New(0)
	a.Label("x")
	a.Label("x")
	a.Nop()
	if _, err := a.Assemble(); err == nil {
		t.Error("duplicate label must error")
	}
}

func TestCsrEncoding(t *testing.T) {
	a := New(0)
	a.Csrrw(X0, rv.CSRMscratch, X0) // the Table 4 probe instruction
	a.Csrr(A0, rv.CSRMstatus)
	a.Csrrwi(X0, rv.CSRMie, 8)
	img := a.MustAssemble()
	w := word(t, img, 0)
	if rv.CSROf(w) != rv.CSRMscratch || rv.Funct3Of(w) != rv.F3Csrrw {
		t.Errorf("csrrw encoding %#x", w)
	}
	w = word(t, img, 1)
	if rv.CSROf(w) != rv.CSRMstatus || rv.Funct3Of(w) != rv.F3Csrrs || rv.RdOf(w) != A0 {
		t.Errorf("csrr encoding %#x", w)
	}
	w = word(t, img, 2)
	if rv.Funct3Of(w) != rv.F3Csrrwi || rv.Rs1Of(w) != 8 {
		t.Errorf("csrrwi encoding %#x", w)
	}
}

func TestPrivEncodings(t *testing.T) {
	a := New(0)
	a.Ecall()
	a.Ebreak()
	a.Mret()
	a.Sret()
	a.Wfi()
	a.FenceI()
	a.SfenceVMA(X0, X0)
	img := a.MustAssemble()
	wants := []uint32{rv.InstrEcall, rv.InstrEbreak, rv.InstrMret,
		rv.InstrSret, rv.InstrWfi, rv.InstrFenceI}
	for i, want := range wants {
		if got := word(t, img, i); got != want {
			t.Errorf("instr %d: got %#x want %#x", i, got, want)
		}
	}
	w := word(t, img, 6)
	if rv.Funct7Of(w) != rv.SfenceVMAFunct7 || rv.OpcodeOf(w) != rv.OpSystem {
		t.Errorf("sfence.vma %#x", w)
	}
}

func TestAlign(t *testing.T) {
	a := New(0x1000)
	a.Nop()
	a.Align(16)
	if a.PC() != 0x1010 {
		t.Errorf("PC after align = %#x", a.PC())
	}
	b := New(0)
	b.Align(6)
	if _, err := b.Assemble(); err == nil {
		t.Error("non-power-of-two align must error")
	}
}

func TestRaw64(t *testing.T) {
	a := New(0)
	a.Raw64(0x1122334455667788)
	img := a.MustAssemble()
	if binary.LittleEndian.Uint64(img) != 0x1122334455667788 {
		t.Error("Raw64 layout")
	}
}

func TestRegisterRangeChecked(t *testing.T) {
	a := New(0)
	a.Add(32, 0, 0)
	a.Nop()
	if _, err := a.Assemble(); err == nil {
		t.Error("register out of range must error")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble must panic on error")
		}
	}()
	a := New(0)
	a.J("missing")
	a.MustAssemble()
}

func TestMisalignedBaseErrors(t *testing.T) {
	a := New(2)
	a.Nop()
	if _, err := a.Assemble(); err == nil {
		t.Error("misaligned base must error")
	}
}

func TestBranchOutOfRange(t *testing.T) {
	a := New(0)
	a.Beq(A0, A1, "far")
	for i := 0; i < 1100; i++ {
		a.Nop()
	}
	a.Label("far")
	if _, err := a.Assemble(); err == nil {
		t.Error("branch beyond ±4KiB must error")
	}
}

func TestAddrHelper(t *testing.T) {
	a := New(0x1000)
	a.Nop()
	a.Label("here")
	if a.Addr("here") != 0x1004 {
		t.Errorf("Addr = %#x", a.Addr("here"))
	}
	b := New(0)
	b.Nop()
	_ = b.Addr("missing")
	if _, err := b.Assemble(); err == nil {
		t.Error("Addr of undefined label must error at Assemble")
	}
}

func TestFarBranches(t *testing.T) {
	a := New(0x1000)
	a.BnezFar(A0, "far")
	for i := 0; i < 1500; i++ { // beyond the ±4 KiB conditional range
		a.Nop()
	}
	a.Label("far")
	img := a.MustAssemble()
	// First word: inverted beq skipping +8; second: jal to "far".
	w0 := word(t, img, 0)
	if rv.OpcodeOf(w0) != rv.OpBranch || rv.Funct3Of(w0) != 0 {
		t.Errorf("inverted branch %#x", w0)
	}
	if rv.ImmB(w0) != 8 {
		t.Errorf("inverted branch offset %d", rv.ImmB(w0))
	}
	w1 := word(t, img, 1)
	if rv.OpcodeOf(w1) != rv.OpJal {
		t.Errorf("far jump %#x", w1)
	}
	if got := rv.ImmJ(w1); got != uint64(4*1500+4) {
		t.Errorf("far jump offset %d", got)
	}
}

func TestSpace(t *testing.T) {
	a := New(0)
	a.Space(16)
	img := a.MustAssemble()
	if len(img) != 16 {
		t.Errorf("Space(16) produced %d bytes", len(img))
	}
	b := New(0)
	b.Space(6)
	if _, err := b.Assemble(); err == nil {
		t.Error("Space must require a multiple of 4")
	}
}

// TestHLSVEncodings round-trips every hypervisor load and store through
// rv.HLSVDecode.
func TestHLSVEncodings(t *testing.T) {
	type want struct {
		store        bool
		size         int
		signed, hlvx bool
	}
	a := New(0)
	var wants []want
	for _, size := range []int{1, 2, 4, 8} {
		a.Hlv(T1, T0, size, false)
		wants = append(wants, want{size: size, signed: true})
		if size < 8 {
			a.Hlv(T1, T0, size, true)
			wants = append(wants, want{size: size})
		}
		if size == 2 || size == 4 {
			a.Hlvx(T1, T0, size)
			wants = append(wants, want{size: size, hlvx: true})
		}
		a.Hsv(T1, T0, size)
		wants = append(wants, want{store: true, size: size})
	}
	img := a.MustAssemble()
	for i, w := range wants {
		raw := word(t, img, i)
		store, size, signed, hlvx, ok := rv.HLSVDecode(raw)
		if !ok || rv.OpcodeOf(raw) != rv.OpSystem || rv.Funct3Of(raw) != rv.F3HLSV {
			t.Fatalf("instr %d: %#08x does not decode as hlv/hsv", i, raw)
		}
		if got := (want{store, size, signed, hlvx}); got != w {
			t.Errorf("instr %d: %#08x decodes %+v, want %+v", i, raw, got, w)
		}
		if rv.Rs1Of(raw) != T0 || store && (rv.Rs2Of(raw) != T1 || rv.RdOf(raw) != 0) ||
			!store && rv.RdOf(raw) != T1 {
			t.Errorf("instr %d: %#08x register fields", i, raw)
		}
	}
}
