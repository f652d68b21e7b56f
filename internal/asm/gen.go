package asm

import (
	"math/rand"

	"govfm/internal/rv"
)

// Constrained-random instruction generation for the differential fuzzer
// (internal/verif/fuzz). Programs are slot-based: Generate emits exactly
// cfg.Slots words, and control flow only ever targets slot boundaries, so
// mutating or nop-ing one slot never changes the meaning of another. The
// constraints encode the fuzzer's path-coincidence invariants — which CSRs
// may be touched, in which access forms, and where memory operands may
// point — so the caller fully controls the reachable architectural surface.

// CSRForm is a bitmask of Zicsr access forms a fuzzed CSR may use.
type CSRForm uint8

const (
	FormCsrrw CSRForm = 1 << iota
	FormCsrrs
	FormCsrrc
	FormCsrrwi
	FormCsrrsi
	FormCsrrci
	// FormRead is a pure read: csrrs rd, csr, x0 (never writes).
	FormRead
)

// Common form sets for generator CSR specs.
const (
	// FormsAll allows every access form.
	FormsAll = FormCsrrw | FormCsrrs | FormCsrrc | FormCsrrwi | FormCsrrsi |
		FormCsrrci | FormRead
	// FormsImm allows only immediate-operand writes (zimm <= 31 bounds the
	// reachable bits) plus pure reads.
	FormsImm = FormCsrrwi | FormCsrrsi | FormCsrrci | FormRead
	// FormsSet allows only bit-setting forms plus pure reads (the CSR value
	// can grow but never lose bits the initial state established).
	FormsSet = FormCsrrs | FormCsrrsi | FormRead
	// FormsRead allows only pure reads.
	FormsRead CSRForm = FormRead
)

// GenCSR names one CSR the generator may access and the allowed forms.
// Srcs, when set, are the registers its register-operand writes read, in
// place of the data and base registers.
type GenCSR struct {
	CSR   uint16
	Forms CSRForm
	Srcs  []int
}

// GenCfg bounds what Generate may emit.
type GenCfg struct {
	// Slots is the program length in 32-bit words.
	Slots int
	// DataRegs are general-purpose registers instructions may read and
	// write freely.
	DataRegs []int
	// BaseRegs hold scratch-memory pointers; memory operands use them as
	// bases and no instruction ever writes them.
	BaseRegs []int
	// BaseWindow is the byte range reachable from a base register:
	// load/store offsets are drawn from [0, BaseWindow).
	BaseWindow int64
	// CSRs lists the CSRs Zicsr instructions may touch.
	CSRs []GenCSR
	// HFence, on platforms with the hypervisor extension, lets the
	// privileged class emit hfence.vvma/hfence.gvma.
	HFence bool
}

// Instruction class weights. CSR and privileged instructions dominate: they
// are the monitor's emulated surface and the point of differential fuzzing.
var genClasses = []struct {
	weight int
	gen    func(*rand.Rand, *GenCfg, int) uint32
}{
	{12, genAluImm},
	{8, genAluReg},
	{5, genAluWord},
	{3, genLuiAuipc},
	{8, genBranch},
	{3, genJal},
	{2, genJalr},
	{8, genLoad},
	{7, genStore},
	{4, genAmo},
	{24, genCSROp},
	{11, genPriv},
	{2, genRandomWord},
	{2, func(*rand.Rand, *GenCfg, int) uint32 { return rv.InstrNop }},
}

var genTotalWeight = func() int {
	t := 0
	for _, c := range genClasses {
		t += c.weight
	}
	return t
}()

// Generate produces cfg.Slots instruction words.
func Generate(rng *rand.Rand, cfg *GenCfg) []uint32 {
	prog := make([]uint32, cfg.Slots)
	for i := range prog {
		prog[i] = GenOne(rng, cfg, i)
	}
	return prog
}

// GenOne produces a single instruction word for the given slot. Branch and
// jump offsets are relative to the slot, so a word generated for slot i is
// only valid at slot i.
func GenOne(rng *rand.Rand, cfg *GenCfg, slot int) uint32 {
	n := rng.Intn(genTotalWeight)
	for _, c := range genClasses {
		if n < c.weight {
			return c.gen(rng, cfg, slot)
		}
		n -= c.weight
	}
	return rv.InstrNop
}

func pick(rng *rand.Rand, regs []int) uint32 { return uint32(regs[rng.Intn(len(regs))]) }

// srcReg picks a register to read: any data or base register, sometimes x0.
func srcReg(rng *rand.Rand, cfg *GenCfg) uint32 {
	if rng.Intn(10) == 0 {
		return 0
	}
	if len(cfg.BaseRegs) > 0 && rng.Intn(6) == 0 {
		return pick(rng, cfg.BaseRegs)
	}
	return pick(rng, cfg.DataRegs)
}

// dstReg picks a register to write: a data register, sometimes x0.
func dstReg(rng *rand.Rand, cfg *GenCfg) uint32 {
	if rng.Intn(12) == 0 {
		return 0
	}
	return pick(rng, cfg.DataRegs)
}

func imm12(rng *rand.Rand) uint32 { return rng.Uint32() & 0xFFF }

func genAluImm(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	rd, rs1 := dstReg(rng, cfg), srcReg(rng, cfg)
	switch rng.Intn(4) {
	case 0: // shift-immediate: 6-bit shamt, funct6 selects srli/srai
		f3 := []uint32{1, 5, 5}[rng.Intn(3)]
		sh := rng.Uint32() & 0x3F
		f6 := uint32(0)
		if f3 == 5 && rng.Intn(2) == 0 {
			f6 = 0x10 // srai
		}
		return f6<<26 | sh<<20 | rs1<<15 | f3<<12 | rd<<7 | rv.OpImm
	default:
		f3 := []uint32{0, 2, 3, 4, 6, 7}[rng.Intn(6)]
		return encI(imm12(rng), rs1, f3, rd, rv.OpImm)
	}
}

func genAluReg(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	rd, rs1, rs2 := dstReg(rng, cfg), srcReg(rng, cfg), srcReg(rng, cfg)
	if rng.Intn(3) == 0 { // M extension
		return encR(1, rs2, rs1, rng.Uint32()&7, rd, rv.OpReg)
	}
	f3 := rng.Uint32() & 7
	f7 := uint32(0)
	if (f3 == 0 || f3 == 5) && rng.Intn(2) == 0 {
		f7 = 0x20 // sub / sra
	}
	return encR(f7, rs2, rs1, f3, rd, rv.OpReg)
}

func genAluWord(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	rd, rs1 := dstReg(rng, cfg), srcReg(rng, cfg)
	if rng.Intn(2) == 0 {
		switch rng.Intn(3) {
		case 0: // addiw
			return encI(imm12(rng), rs1, 0, rd, rv.OpImm32)
		default: // slliw/srliw/sraiw: 5-bit shamt
			f3 := []uint32{1, 5}[rng.Intn(2)]
			f7 := uint32(0)
			if f3 == 5 && rng.Intn(2) == 0 {
				f7 = 0x20
			}
			return encR(f7, rng.Uint32()&0x1F, rs1, f3, rd, rv.OpImm32)
		}
	}
	rs2 := srcReg(rng, cfg)
	if rng.Intn(3) == 0 { // M-extension word ops: mulw, divw, divuw, remw, remuw
		f3 := []uint32{0, 4, 5, 6, 7}[rng.Intn(5)]
		return encR(1, rs2, rs1, f3, rd, rv.OpReg32)
	}
	f3 := []uint32{0, 1, 5}[rng.Intn(3)]
	f7 := uint32(0)
	if (f3 == 0 || f3 == 5) && rng.Intn(2) == 0 {
		f7 = 0x20
	}
	return encR(f7, rs2, rs1, f3, rd, rv.OpReg32)
}

func genLuiAuipc(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	rd := dstReg(rng, cfg)
	op := rv.OpLui
	if rng.Intn(2) == 0 {
		op = rv.OpAuipc
	}
	return rng.Uint32()&0xFFFFF000 | rd<<7 | op
}

// slotTarget picks a branch/jump destination slot; cfg.Slots (one past the
// end) is allowed, landing on the zeroed word after the program.
func slotTarget(rng *rand.Rand, cfg *GenCfg, slot int) int64 {
	return int64(rng.Intn(cfg.Slots+1)-slot) * 4
}

func genBranch(rng *rand.Rand, cfg *GenCfg, slot int) uint32 {
	f3 := []uint32{0, 1, 4, 5, 6, 7}[rng.Intn(6)]
	rs1, rs2 := srcReg(rng, cfg), srcReg(rng, cfg)
	off := slotTarget(rng, cfg, slot)
	return encodeB(uint64(off)) | rs2<<20 | rs1<<15 | f3<<12 | rv.OpBranch
}

func genJal(rng *rand.Rand, cfg *GenCfg, slot int) uint32 {
	return encodeJ(uint64(slotTarget(rng, cfg, slot))) | dstReg(rng, cfg)<<7 | rv.OpJal
}

func genJalr(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	// Target is rs1+imm with bit 0 cleared; a base register keeps it in
	// scratch memory (an executable region), anything else usually faults.
	rs1 := srcReg(rng, cfg)
	if len(cfg.BaseRegs) > 0 && rng.Intn(4) != 0 {
		rs1 = pick(rng, cfg.BaseRegs)
	}
	return encI(imm12(rng), rs1, 0, dstReg(rng, cfg), rv.OpJalr)
}

// memOffset draws a load/store offset inside the base window, aligned to
// size except for an occasional deliberate misalignment.
func memOffset(rng *rand.Rand, cfg *GenCfg, size int64) uint32 {
	w := cfg.BaseWindow
	if w <= 8 || w > 2048 {
		w = 2048
	}
	off := rng.Int63n(w - 8)
	if rng.Intn(8) != 0 {
		off &^= size - 1
	}
	return uint32(off) & 0xFFF
}

func genLoad(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	f3 := uint32(rng.Intn(7)) // lb lh lw ld lbu lhu lwu
	size := int64(1) << (f3 & 3)
	return encI(memOffset(rng, cfg, size), pick(rng, cfg.BaseRegs), f3,
		dstReg(rng, cfg), rv.OpLoad)
}

func genStore(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	f3 := uint32(rng.Intn(4)) // sb sh sw sd
	return encS(memOffset(rng, cfg, int64(1)<<f3), srcReg(rng, cfg),
		pick(rng, cfg.BaseRegs), f3, rv.OpStore)
}

func genAmo(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	f5s := []uint32{0x00, 0x01, 0x02, 0x03, 0x04, 0x08, 0x0C, 0x10, 0x14, 0x18, 0x1C}
	f5 := f5s[rng.Intn(len(f5s))]
	f3 := uint32(2 + rng.Intn(2)) // .w / .d
	rs1 := pick(rng, cfg.BaseRegs)
	rs2 := srcReg(rng, cfg)
	if f5 == 0x02 { // lr: rs2 must be x0
		rs2 = 0
	}
	w := encR(f5<<2, rs2, rs1, f3, dstReg(rng, cfg), rv.OpAmo)
	if rng.Intn(8) == 0 {
		// Misaligned AMO address: flip low offset bits via rs1? AMO has no
		// immediate; misalignment comes from the base register value, which
		// the state generator biases. Instead occasionally set aq/rl bits.
		w |= rng.Uint32() & (3 << 25)
	}
	return w
}

func genCSROp(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	if len(cfg.CSRs) == 0 {
		return rv.InstrNop
	}
	spec := cfg.CSRs[rng.Intn(len(cfg.CSRs))]
	var forms []CSRForm
	for f := FormCsrrw; f <= FormRead; f <<= 1 {
		if spec.Forms&f != 0 {
			forms = append(forms, f)
		}
	}
	if len(forms) == 0 {
		return rv.InstrNop
	}
	form := forms[rng.Intn(len(forms))]
	rd := dstReg(rng, cfg)
	csrN := uint32(spec.CSR)
	src := func() uint32 {
		if len(spec.Srcs) > 0 {
			return pick(rng, spec.Srcs)
		}
		return srcReg(rng, cfg)
	}
	switch form {
	case FormCsrrw:
		return csrN<<20 | src()<<15 | rv.F3Csrrw<<12 | rd<<7 | rv.OpSystem
	case FormCsrrs:
		return csrN<<20 | src()<<15 | rv.F3Csrrs<<12 | rd<<7 | rv.OpSystem
	case FormCsrrc:
		return csrN<<20 | src()<<15 | rv.F3Csrrc<<12 | rd<<7 | rv.OpSystem
	case FormCsrrwi:
		return csrN<<20 | (rng.Uint32()&0x1F)<<15 | rv.F3Csrrwi<<12 | rd<<7 | rv.OpSystem
	case FormCsrrsi:
		return csrN<<20 | (rng.Uint32()&0x1F)<<15 | rv.F3Csrrsi<<12 | rd<<7 | rv.OpSystem
	case FormCsrrci:
		return csrN<<20 | (rng.Uint32()&0x1F)<<15 | rv.F3Csrrci<<12 | rd<<7 | rv.OpSystem
	default: // FormRead
		return csrN<<20 | rv.F3Csrrs<<12 | rd<<7 | rv.OpSystem
	}
}

func genPriv(rng *rand.Rand, cfg *GenCfg, _ int) uint32 {
	n := 22
	if cfg.HFence {
		n = 26
	}
	switch rng.Intn(n) {
	case 0, 1, 2, 3, 4: // mret: the main world-switch trigger
		return rv.InstrMret
	case 5, 6, 7, 8, 9:
		return rv.InstrSret
	case 10, 11:
		return rv.InstrWfi
	case 12, 13, 14:
		return rv.InstrEcall
	case 15, 16:
		return rv.InstrEbreak
	case 17, 18, 19:
		rs1, rs2 := srcReg(rng, cfg), srcReg(rng, cfg)
		return encR(rv.SfenceVMAFunct7, rs2, rs1, 0, 0, rv.OpSystem)
	case 20:
		return rv.InstrFence
	case 22, 23: // hfence.vvma (only drawn when cfg.HFence)
		return encR(rv.HfenceVVMAFunct7, srcReg(rng, cfg), srcReg(rng, cfg), 0, 0, rv.OpSystem)
	case 24, 25: // hfence.gvma
		return encR(rv.HfenceGVMAFunct7, srcReg(rng, cfg), srcReg(rng, cfg), 0, 0, rv.OpSystem)
	default:
		return rv.InstrFenceI
	}
}

// genRandomWord emits a fully random word — decoder fuzz fodder. SYSTEM
// opcodes are excluded: a random CSR number would probe CSR existence,
// which legitimately differs between the native and virtualized harts.
func genRandomWord(rng *rand.Rand, _ *GenCfg, _ int) uint32 {
	for i := 0; i < 8; i++ {
		w := rng.Uint32()
		if w&0x7F != rv.OpSystem {
			return w
		}
	}
	return rv.InstrNop
}
