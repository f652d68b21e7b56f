// Package asm is a programmatic RV64 assembler. Firmware and kernel images
// in this repository are real machine code built with it: each method emits
// one instruction (or a short pseudo-instruction expansion) and labels
// resolve forward references at Assemble time.
//
// The assembler covers RV64IMA_Zicsr plus the privileged instructions —
// the same surface the simulator executes and the monitor emulates.
package asm

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"govfm/internal/rv"
)

// ABI register names.
const (
	X0 = iota
	RA
	SP
	GP
	TP
	T0
	T1
	T2
	S0
	S1
	A0
	A1
	A2
	A3
	A4
	A5
	A6
	A7
	S2
	S3
	S4
	S5
	S6
	S7
	S8
	S9
	S10
	S11
	T3
	T4
	T5
	T6
)

// Zero is the canonical name for x0.
const Zero = X0

type fixupKind int

const (
	fixBranch fixupKind = iota // B-type, 13-bit pc-relative
	fixJal                     // J-type, 21-bit pc-relative
	fixAuipc                   // U-type, pc-relative high part of a La pair
	fixLo12                    // I-type low part of a La pair
	fixAbs64                   // 8-byte absolute address literal
)

type fixup struct {
	word  int // index into words
	kind  fixupKind
	label string
	// pairPC is the PC of the auipc for fixLo12.
	pairPC uint64
}

// Asm accumulates instructions at increasing addresses from a base.
type Asm struct {
	base   uint64
	words  []uint32
	labels map[string]uint64
	fixups []fixup
	errs   []error
}

// New starts an assembly at the given base address (must be 4-aligned).
func New(base uint64) *Asm {
	a := &Asm{base: base, labels: make(map[string]uint64)}
	if base%4 != 0 {
		a.errorf("base %#x not 4-aligned", base)
	}
	return a
}

func (a *Asm) errorf(format string, args ...any) {
	a.errs = append(a.errs, fmt.Errorf("asm: "+format, args...))
}

// PC returns the address of the next emitted instruction.
func (a *Asm) PC() uint64 { return a.base + 4*uint64(len(a.words)) }

// Base returns the assembly's base address.
func (a *Asm) Base() uint64 { return a.base }

// Label defines name at the current PC.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.errorf("duplicate label %q", name)
	}
	a.labels[name] = a.PC()
}

// Addr returns a defined label's address; it must already be defined.
func (a *Asm) Addr(name string) uint64 {
	v, ok := a.labels[name]
	if !ok {
		a.errorf("Addr of undefined label %q", name)
	}
	return v
}

// Word emits a raw 32-bit instruction word.
func (a *Asm) Word(w uint32) { a.words = append(a.words, w) }

// Raw64 emits an 8-byte little-endian data value (two words).
func (a *Asm) Raw64(v uint64) {
	a.Word(uint32(v))
	a.Word(uint32(v >> 32))
}

// Align pads with nops to the given power-of-two byte boundary.
func (a *Asm) Align(n uint64) {
	if n == 0 || n&(n-1) != 0 || n%4 != 0 {
		a.errorf("Align(%d): need a power-of-two multiple of 4", n)
		return
	}
	for a.PC()%n != 0 {
		a.Word(rv.InstrNop)
	}
}

// Assemble resolves all fixups and returns the image bytes.
func (a *Asm) Assemble() ([]byte, error) {
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			a.errorf("undefined label %q", f.label)
			continue
		}
		pc := a.base + 4*uint64(f.word)
		switch f.kind {
		case fixBranch:
			off := int64(target) - int64(pc)
			if off < -(1<<12) || off >= 1<<12 || off%2 != 0 {
				a.errorf("branch to %q out of range (%d)", f.label, off)
				continue
			}
			a.words[f.word] |= encodeB(uint64(off))
		case fixJal:
			off := int64(target) - int64(pc)
			if off < -(1<<20) || off >= 1<<20 || off%2 != 0 {
				a.errorf("jal to %q out of range (%d)", f.label, off)
				continue
			}
			a.words[f.word] |= encodeJ(uint64(off))
		case fixAuipc:
			off := int64(target) - int64(pc)
			hi := uint32((off + 0x800) >> 12)
			a.words[f.word] |= hi << 12
		case fixLo12:
			off := int64(target) - int64(f.pairPC)
			lo := uint32(off) & 0xFFF
			a.words[f.word] |= lo << 20
		case fixAbs64:
			a.words[f.word] = uint32(target)
			a.words[f.word+1] = uint32(target >> 32)
		}
	}
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	out := make([]byte, 4*len(a.words))
	for i, w := range a.words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out, nil
}

// MustAssemble is Assemble that panics on error; images are built at
// program start where an assembly error is a programming bug.
func (a *Asm) MustAssemble() []byte {
	img, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return img
}

func checkReg(a *Asm, rs ...int) {
	for _, r := range rs {
		if r < 0 || r > 31 {
			a.errorf("register x%d out of range", r)
		}
	}
}

// Encoders.

func encR(f7, rs2, rs1, f3, rd, op uint32) uint32 {
	return f7<<25 | rs2<<20 | rs1<<15 | f3<<12 | rd<<7 | op
}

func encI(imm uint32, rs1, f3, rd, op uint32) uint32 {
	return imm<<20 | rs1<<15 | f3<<12 | rd<<7 | op
}

func encS(imm uint32, rs2, rs1, f3, op uint32) uint32 {
	return (imm>>5)<<25 | rs2<<20 | rs1<<15 | f3<<12 | (imm&0x1F)<<7 | op
}

func encodeB(off uint64) uint32 {
	return uint32(off>>12&1)<<31 | uint32(off>>5&0x3F)<<25 |
		uint32(off>>1&0xF)<<8 | uint32(off>>11&1)<<7
}

func encodeJ(off uint64) uint32 {
	return uint32(off>>20&1)<<31 | uint32(off>>1&0x3FF)<<21 |
		uint32(off>>11&1)<<20 | uint32(off>>12&0xFF)<<12
}

func immI12(a *Asm, imm int64) uint32 {
	if imm < -2048 || imm > 2047 {
		a.errorf("I-immediate %d out of range", imm)
	}
	return uint32(imm) & 0xFFF
}

// --- RV64I ---

// Lui emits lui rd, imm20 (imm20 is the raw upper-20-bit field).
func (a *Asm) Lui(rd int, imm20 uint32) {
	checkReg(a, rd)
	a.Word(imm20<<12 | uint32(rd)<<7 | rv.OpLui)
}

// Auipc emits auipc rd, imm20.
func (a *Asm) Auipc(rd int, imm20 uint32) {
	checkReg(a, rd)
	a.Word(imm20<<12 | uint32(rd)<<7 | rv.OpAuipc)
}

// Jal emits jal rd, label.
func (a *Asm) Jal(rd int, label string) {
	checkReg(a, rd)
	a.fixups = append(a.fixups, fixup{word: len(a.words), kind: fixJal, label: label})
	a.Word(uint32(rd)<<7 | rv.OpJal)
}

// J is the j pseudo-instruction (jal x0, label).
func (a *Asm) J(label string) { a.Jal(X0, label) }

// Jalr emits jalr rd, imm(rs1).
func (a *Asm) Jalr(rd, rs1 int, imm int64) {
	checkReg(a, rd, rs1)
	a.Word(encI(immI12(a, imm), uint32(rs1), 0, uint32(rd), rv.OpJalr))
}

// Jr is the jr pseudo-instruction (jalr x0, 0(rs1)).
func (a *Asm) Jr(rs1 int) { a.Jalr(X0, rs1, 0) }

// Ret is the ret pseudo-instruction (jalr x0, 0(ra)).
func (a *Asm) Ret() { a.Jalr(X0, RA, 0) }

func (a *Asm) branch(f3 uint32, rs1, rs2 int, label string) {
	checkReg(a, rs1, rs2)
	a.fixups = append(a.fixups, fixup{word: len(a.words), kind: fixBranch, label: label})
	a.Word(uint32(rs2)<<20 | uint32(rs1)<<15 | f3<<12 | rv.OpBranch)
}

// Beq emits beq rs1, rs2, label; the other branches follow the same shape.
func (a *Asm) Beq(rs1, rs2 int, label string)  { a.branch(0, rs1, rs2, label) }
func (a *Asm) Bne(rs1, rs2 int, label string)  { a.branch(1, rs1, rs2, label) }
func (a *Asm) Blt(rs1, rs2 int, label string)  { a.branch(4, rs1, rs2, label) }
func (a *Asm) Bge(rs1, rs2 int, label string)  { a.branch(5, rs1, rs2, label) }
func (a *Asm) Bltu(rs1, rs2 int, label string) { a.branch(6, rs1, rs2, label) }
func (a *Asm) Bgeu(rs1, rs2 int, label string) { a.branch(7, rs1, rs2, label) }

// Beqz emits beq rs1, x0, label.
func (a *Asm) Beqz(rs1 int, label string) { a.Beq(rs1, X0, label) }

// Bnez emits bne rs1, x0, label.
func (a *Asm) Bnez(rs1 int, label string) { a.Bne(rs1, X0, label) }

func (a *Asm) load(f3 uint32, rd, rs1 int, imm int64) {
	checkReg(a, rd, rs1)
	a.Word(encI(immI12(a, imm), uint32(rs1), f3, uint32(rd), rv.OpLoad))
}

// Lb emits lb rd, imm(rs1); the other loads follow the same shape.
func (a *Asm) Lb(rd, rs1 int, imm int64)  { a.load(0, rd, rs1, imm) }
func (a *Asm) Lh(rd, rs1 int, imm int64)  { a.load(1, rd, rs1, imm) }
func (a *Asm) Lw(rd, rs1 int, imm int64)  { a.load(2, rd, rs1, imm) }
func (a *Asm) Ld(rd, rs1 int, imm int64)  { a.load(3, rd, rs1, imm) }
func (a *Asm) Lbu(rd, rs1 int, imm int64) { a.load(4, rd, rs1, imm) }
func (a *Asm) Lhu(rd, rs1 int, imm int64) { a.load(5, rd, rs1, imm) }
func (a *Asm) Lwu(rd, rs1 int, imm int64) { a.load(6, rd, rs1, imm) }

func (a *Asm) store(f3 uint32, rs2, rs1 int, imm int64) {
	checkReg(a, rs2, rs1)
	if imm < -2048 || imm > 2047 {
		a.errorf("S-immediate %d out of range", imm)
	}
	a.Word(encS(uint32(imm)&0xFFF, uint32(rs2), uint32(rs1), f3, rv.OpStore))
}

// Sb emits sb rs2, imm(rs1); the other stores follow the same shape.
func (a *Asm) Sb(rs2, rs1 int, imm int64) { a.store(0, rs2, rs1, imm) }
func (a *Asm) Sh(rs2, rs1 int, imm int64) { a.store(1, rs2, rs1, imm) }
func (a *Asm) Sw(rs2, rs1 int, imm int64) { a.store(2, rs2, rs1, imm) }
func (a *Asm) Sd(rs2, rs1 int, imm int64) { a.store(3, rs2, rs1, imm) }

func (a *Asm) opImm(f3 uint32, rd, rs1 int, imm int64) {
	checkReg(a, rd, rs1)
	a.Word(encI(immI12(a, imm), uint32(rs1), f3, uint32(rd), rv.OpImm))
}

// Addi emits addi rd, rs1, imm; the other I-type ALU ops follow.
func (a *Asm) Addi(rd, rs1 int, imm int64)  { a.opImm(0, rd, rs1, imm) }
func (a *Asm) Slti(rd, rs1 int, imm int64)  { a.opImm(2, rd, rs1, imm) }
func (a *Asm) Sltiu(rd, rs1 int, imm int64) { a.opImm(3, rd, rs1, imm) }
func (a *Asm) Xori(rd, rs1 int, imm int64)  { a.opImm(4, rd, rs1, imm) }
func (a *Asm) Ori(rd, rs1 int, imm int64)   { a.opImm(6, rd, rs1, imm) }
func (a *Asm) Andi(rd, rs1 int, imm int64)  { a.opImm(7, rd, rs1, imm) }

// Mv is the mv pseudo-instruction (addi rd, rs1, 0).
func (a *Asm) Mv(rd, rs1 int) { a.Addi(rd, rs1, 0) }

// Nop emits addi x0, x0, 0.
func (a *Asm) Nop() { a.Word(rv.InstrNop) }

// Slli emits slli rd, rs1, sh (0..63).
func (a *Asm) Slli(rd, rs1 int, sh uint32) {
	checkReg(a, rd, rs1)
	if sh > 63 {
		a.errorf("shift %d out of range", sh)
	}
	a.Word(encI(sh, uint32(rs1), 1, uint32(rd), rv.OpImm))
}

// Srli emits srli rd, rs1, sh.
func (a *Asm) Srli(rd, rs1 int, sh uint32) {
	checkReg(a, rd, rs1)
	if sh > 63 {
		a.errorf("shift %d out of range", sh)
	}
	a.Word(encI(sh, uint32(rs1), 5, uint32(rd), rv.OpImm))
}

// Srai emits srai rd, rs1, sh.
func (a *Asm) Srai(rd, rs1 int, sh uint32) {
	checkReg(a, rd, rs1)
	if sh > 63 {
		a.errorf("shift %d out of range", sh)
	}
	a.Word(encI(0x400|sh, uint32(rs1), 5, uint32(rd), rv.OpImm))
}

// Addiw emits addiw rd, rs1, imm.
func (a *Asm) Addiw(rd, rs1 int, imm int64) {
	checkReg(a, rd, rs1)
	a.Word(encI(immI12(a, imm), uint32(rs1), 0, uint32(rd), rv.OpImm32))
}

// Sext32 sign-extends the low 32 bits of rs1 into rd (addiw rd, rs1, 0).
func (a *Asm) Sext32(rd, rs1 int) { a.Addiw(rd, rs1, 0) }

func (a *Asm) opReg(f7, f3 uint32, rd, rs1, rs2 int) {
	checkReg(a, rd, rs1, rs2)
	a.Word(encR(f7, uint32(rs2), uint32(rs1), f3, uint32(rd), rv.OpReg))
}

// Add emits add rd, rs1, rs2; the other R-type ALU ops follow.
func (a *Asm) Add(rd, rs1, rs2 int)  { a.opReg(0, 0, rd, rs1, rs2) }
func (a *Asm) Sub(rd, rs1, rs2 int)  { a.opReg(0x20, 0, rd, rs1, rs2) }
func (a *Asm) Sll(rd, rs1, rs2 int)  { a.opReg(0, 1, rd, rs1, rs2) }
func (a *Asm) Slt(rd, rs1, rs2 int)  { a.opReg(0, 2, rd, rs1, rs2) }
func (a *Asm) Sltu(rd, rs1, rs2 int) { a.opReg(0, 3, rd, rs1, rs2) }
func (a *Asm) Xor(rd, rs1, rs2 int)  { a.opReg(0, 4, rd, rs1, rs2) }
func (a *Asm) Srl(rd, rs1, rs2 int)  { a.opReg(0, 5, rd, rs1, rs2) }
func (a *Asm) Sra(rd, rs1, rs2 int)  { a.opReg(0x20, 5, rd, rs1, rs2) }
func (a *Asm) Or(rd, rs1, rs2 int)   { a.opReg(0, 6, rd, rs1, rs2) }
func (a *Asm) And(rd, rs1, rs2 int)  { a.opReg(0, 7, rd, rs1, rs2) }

// Addw emits addw rd, rs1, rs2.
func (a *Asm) Addw(rd, rs1, rs2 int) {
	checkReg(a, rd, rs1, rs2)
	a.Word(encR(0, uint32(rs2), uint32(rs1), 0, uint32(rd), rv.OpReg32))
}

// Subw emits subw rd, rs1, rs2.
func (a *Asm) Subw(rd, rs1, rs2 int) {
	checkReg(a, rd, rs1, rs2)
	a.Word(encR(0x20, uint32(rs2), uint32(rs1), 0, uint32(rd), rv.OpReg32))
}

// --- M extension ---

func (a *Asm) opM(f3 uint32, rd, rs1, rs2 int) { a.opReg(1, f3, rd, rs1, rs2) }

// Mul emits mul rd, rs1, rs2; the other M-extension ops follow.
func (a *Asm) Mul(rd, rs1, rs2 int)    { a.opM(0, rd, rs1, rs2) }
func (a *Asm) Mulh(rd, rs1, rs2 int)   { a.opM(1, rd, rs1, rs2) }
func (a *Asm) Mulhsu(rd, rs1, rs2 int) { a.opM(2, rd, rs1, rs2) }
func (a *Asm) Mulhu(rd, rs1, rs2 int)  { a.opM(3, rd, rs1, rs2) }
func (a *Asm) Div(rd, rs1, rs2 int)    { a.opM(4, rd, rs1, rs2) }
func (a *Asm) Divu(rd, rs1, rs2 int)   { a.opM(5, rd, rs1, rs2) }
func (a *Asm) Rem(rd, rs1, rs2 int)    { a.opM(6, rd, rs1, rs2) }
func (a *Asm) Remu(rd, rs1, rs2 int)   { a.opM(7, rd, rs1, rs2) }

// --- A extension ---

func (a *Asm) amo(f5 uint32, size int, rd, rs1, rs2 int) {
	checkReg(a, rd, rs1, rs2)
	f3 := uint32(2)
	if size == 8 {
		f3 = 3
	}
	a.Word(encR(f5<<2, uint32(rs2), uint32(rs1), f3, uint32(rd), rv.OpAmo))
}

// LrD emits lr.d rd, (rs1).
func (a *Asm) LrD(rd, rs1 int) { a.amo(0x02, 8, rd, rs1, X0) }

// ScD emits sc.d rd, rs2, (rs1).
func (a *Asm) ScD(rd, rs1, rs2 int) { a.amo(0x03, 8, rd, rs1, rs2) }

// LrW emits lr.w rd, (rs1).
func (a *Asm) LrW(rd, rs1 int) { a.amo(0x02, 4, rd, rs1, X0) }

// ScW emits sc.w rd, rs2, (rs1).
func (a *Asm) ScW(rd, rs1, rs2 int) { a.amo(0x03, 4, rd, rs1, rs2) }

// AmoaddD emits amoadd.d rd, rs2, (rs1); other AMOs follow the same shape.
func (a *Asm) AmoaddD(rd, rs1, rs2 int)  { a.amo(0x00, 8, rd, rs1, rs2) }
func (a *Asm) AmoaddW(rd, rs1, rs2 int)  { a.amo(0x00, 4, rd, rs1, rs2) }
func (a *Asm) AmoswapD(rd, rs1, rs2 int) { a.amo(0x01, 8, rd, rs1, rs2) }
func (a *Asm) AmoswapW(rd, rs1, rs2 int) { a.amo(0x01, 4, rd, rs1, rs2) }
func (a *Asm) AmoorD(rd, rs1, rs2 int)   { a.amo(0x08, 8, rd, rs1, rs2) }
func (a *Asm) AmoorW(rd, rs1, rs2 int)   { a.amo(0x08, 4, rd, rs1, rs2) }
func (a *Asm) AmoandD(rd, rs1, rs2 int)  { a.amo(0x0C, 8, rd, rs1, rs2) }

// --- Zicsr ---

func (a *Asm) csr(f3 uint32, rd int, csrN uint16, src uint32) {
	checkReg(a, rd)
	a.Word(uint32(csrN)<<20 | src<<15 | f3<<12 | uint32(rd)<<7 | rv.OpSystem)
}

// Csrrw emits csrrw rd, csr, rs1; the other CSR ops follow the same shape.
func (a *Asm) Csrrw(rd int, csrN uint16, rs1 int) {
	checkReg(a, rs1)
	a.csr(rv.F3Csrrw, rd, csrN, uint32(rs1))
}

func (a *Asm) Csrrs(rd int, csrN uint16, rs1 int) {
	checkReg(a, rs1)
	a.csr(rv.F3Csrrs, rd, csrN, uint32(rs1))
}

func (a *Asm) Csrrc(rd int, csrN uint16, rs1 int) {
	checkReg(a, rs1)
	a.csr(rv.F3Csrrc, rd, csrN, uint32(rs1))
}

// Csrrwi emits csrrwi rd, csr, zimm (zimm in 0..31).
func (a *Asm) Csrrwi(rd int, csrN uint16, zimm uint32) {
	if zimm > 31 {
		a.errorf("zimm %d out of range", zimm)
	}
	a.csr(rv.F3Csrrwi, rd, csrN, zimm)
}

func (a *Asm) Csrrsi(rd int, csrN uint16, zimm uint32) {
	if zimm > 31 {
		a.errorf("zimm %d out of range", zimm)
	}
	a.csr(rv.F3Csrrsi, rd, csrN, zimm)
}

func (a *Asm) Csrrci(rd int, csrN uint16, zimm uint32) {
	if zimm > 31 {
		a.errorf("zimm %d out of range", zimm)
	}
	a.csr(rv.F3Csrrci, rd, csrN, zimm)
}

// Csrr is the csrr pseudo-instruction (csrrs rd, csr, x0).
func (a *Asm) Csrr(rd int, csrN uint16) { a.Csrrs(rd, csrN, X0) }

// Csrw is the csrw pseudo-instruction (csrrw x0, csr, rs1).
func (a *Asm) Csrw(csrN uint16, rs1 int) { a.Csrrw(X0, csrN, rs1) }

// --- Privileged ---

// Ecall emits ecall.
func (a *Asm) Ecall() { a.Word(rv.InstrEcall) }

// Ebreak emits ebreak.
func (a *Asm) Ebreak() { a.Word(rv.InstrEbreak) }

// Mret emits mret.
func (a *Asm) Mret() { a.Word(rv.InstrMret) }

// Sret emits sret.
func (a *Asm) Sret() { a.Word(rv.InstrSret) }

// Wfi emits wfi.
func (a *Asm) Wfi() { a.Word(rv.InstrWfi) }

// Fence emits fence iorw, iorw.
func (a *Asm) Fence() { a.Word(rv.InstrFence) }

// FenceI emits fence.i.
func (a *Asm) FenceI() { a.Word(rv.InstrFenceI) }

// SfenceVMA emits sfence.vma rs1, rs2.
func (a *Asm) SfenceVMA(rs1, rs2 int) {
	checkReg(a, rs1, rs2)
	a.Word(encR(rv.SfenceVMAFunct7, uint32(rs2), uint32(rs1), 0, 0, rv.OpSystem))
}

// HfenceVVMA emits hfence.vvma rs1, rs2 (VS-stage fence, H extension).
func (a *Asm) HfenceVVMA(rs1, rs2 int) {
	checkReg(a, rs1, rs2)
	a.Word(encR(rv.HfenceVVMAFunct7, uint32(rs2), uint32(rs1), 0, 0, rv.OpSystem))
}

// HfenceGVMA emits hfence.gvma rs1, rs2 (G-stage fence, H extension).
func (a *Asm) HfenceGVMA(rs1, rs2 int) {
	checkReg(a, rs1, rs2)
	a.Word(encR(rv.HfenceGVMAFunct7, uint32(rs2), uint32(rs1), 0, 0, rv.OpSystem))
}

// hlsv emits a hypervisor load or store of size bytes: funct7 carries the
// width and the store bit, and a load's rs2 field its variant (rv.HLSVDecode).
func (a *Asm) hlsv(size int, store bool, variant, rd, rs1, rs2 int) {
	checkReg(a, rd, rs1, rs2)
	var w uint32
	switch size {
	case 1, 2, 4, 8:
		w = uint32(bits.TrailingZeros(uint(size)))
	default:
		a.errorf("hlv/hsv size %d", size)
	}
	f7 := 0x30 | w<<1
	if store {
		f7 |= 1
	} else {
		rs2 = variant
	}
	a.Word(encR(f7, uint32(rs2), uint32(rs1), rv.F3HLSV, uint32(rd), rv.OpSystem))
}

// Hlv emits hlv.b/h/w/d rd, (rs1), or with unsigned hlv.bu/hu/wu (there
// is no hlv.du): a load in the guest's two-stage context (H extension).
func (a *Asm) Hlv(rd, rs1, size int, unsigned bool) {
	variant := 0
	if unsigned {
		variant = 1
	}
	a.hlsv(size, false, variant, rd, rs1, X0)
}

// Hlvx emits hlvx.hu/wu rd, (rs1): an Hlv that needs execute permission
// at the VS stage in place of read.
func (a *Asm) Hlvx(rd, rs1, size int) { a.hlsv(size, false, 3, rd, rs1, X0) }

// Hsv emits hsv.b/h/w/d rs2, (rs1): a store in the guest's two-stage
// context.
func (a *Asm) Hsv(rs2, rs1, size int) { a.hlsv(size, true, 0, X0, rs1, rs2) }

// --- Pseudo-instructions ---

// Li loads an arbitrary 64-bit constant into rd using the shortest of the
// standard expansions (addi / lui+addi(w) / shift-and-or chain).
func (a *Asm) Li(rd int, v uint64) {
	checkReg(a, rd)
	sv := int64(v)
	if sv >= -2048 && sv <= 2047 {
		a.Addi(rd, X0, sv)
		return
	}
	if sv >= -(1<<31) && sv < 1<<31 {
		// lui loads sign-extended hi<<12; addiw supplies the remaining low
		// part. Near +2^31 the rounding wraps the sign-extended lui value,
		// so only take this form when the low part actually fits.
		hi := uint32((sv + 0x800) >> 12)
		lo := sv - int64(int32(hi<<12))
		if lo >= -2048 && lo <= 2047 {
			a.Lui(rd, hi&0xFFFFF)
			if lo != 0 {
				a.Addiw(rd, rd, lo)
			} else {
				a.Sext32(rd, rd)
			}
			return
		}
	}
	// General case: build from the top 32 bits, then shift-or the rest in
	// 11-bit chunks (guaranteed to fit I-immediates).
	a.Li(rd, uint64(sv>>32))
	rest := v & 0xFFFF_FFFF
	for _, shift := range []uint{11, 11, 10} {
		a.Slli(rd, rd, uint32(shift))
		chunk := rest >> (32 - shift) & rv.Mask(shift)
		rest = rest << shift & 0xFFFF_FFFF
		if chunk != 0 {
			a.Addi(rd, rd, int64(chunk))
		}
	}
}

// La loads a label's address pc-relatively (auipc+addi pair).
func (a *Asm) La(rd int, label string) {
	checkReg(a, rd)
	pairPC := a.PC()
	a.fixups = append(a.fixups,
		fixup{word: len(a.words), kind: fixAuipc, label: label, pairPC: pairPC},
		fixup{word: len(a.words) + 1, kind: fixLo12, label: label, pairPC: pairPC})
	a.Word(uint32(rd)<<7 | rv.OpAuipc)
	a.Word(encI(0, uint32(rd), 0, uint32(rd), rv.OpImm))
}

// Call emits a jal ra, label.
func (a *Asm) Call(label string) { a.Jal(RA, label) }

// Space reserves n bytes of zeroed data (n must be a multiple of 4).
func (a *Asm) Space(n uint64) {
	if n%4 != 0 {
		a.errorf("Space(%d): need a multiple of 4", n)
		return
	}
	for i := uint64(0); i < n; i += 4 {
		a.Word(0)
	}
}

// Far branches: an inverted conditional hop over an unconditional jal,
// giving ±1 MiB reach. Used by generated kernels whose loop bodies push
// plain branches past their ±4 KiB range.

func (a *Asm) farBranch(f3 uint32, rs1, rs2 int, label string) {
	checkReg(a, rs1, rs2)
	inv := f3 ^ 1 // beq<->bne, blt<->bge, bltu<->bgeu share this inversion
	// Inverted branch skipping the jal (+8 from this instruction).
	a.Word(uint32(rs2)<<20 | uint32(rs1)<<15 | inv<<12 | rv.OpBranch | encodeB(8))
	a.Jal(X0, label)
}

// BeqFar emits a long-range beq; the other far branches follow.
func (a *Asm) BeqFar(rs1, rs2 int, label string)  { a.farBranch(0, rs1, rs2, label) }
func (a *Asm) BneFar(rs1, rs2 int, label string)  { a.farBranch(1, rs1, rs2, label) }
func (a *Asm) BltFar(rs1, rs2 int, label string)  { a.farBranch(4, rs1, rs2, label) }
func (a *Asm) BgeFar(rs1, rs2 int, label string)  { a.farBranch(5, rs1, rs2, label) }
func (a *Asm) BltuFar(rs1, rs2 int, label string) { a.farBranch(6, rs1, rs2, label) }
func (a *Asm) BgeuFar(rs1, rs2 int, label string) { a.farBranch(7, rs1, rs2, label) }

// BeqzFar and BnezFar are the x0 comparisons.
func (a *Asm) BeqzFar(rs1 int, label string) { a.BeqFar(rs1, X0, label) }
func (a *Asm) BnezFar(rs1 int, label string) { a.BneFar(rs1, X0, label) }
