package rv

// Decoded is a predecoded instruction: every field the interpreter needs,
// extracted once. The simulator caches Decoded records per physical PC so
// the shift-and-mask field extraction and immediate assembly happen a
// single time per instruction word instead of on every execution (the
// host-side acceleration is invisible to the architecture — see
// internal/hart's fast-path layer).
type Decoded struct {
	Raw uint32

	Op  uint32
	Rd  uint32
	Rs1 uint32
	Rs2 uint32
	F3  uint32
	F7  uint32

	// Imm is the format-appropriate immediate for the major opcode
	// (U for lui/auipc, J for jal, B for branches, S for stores, I for
	// everything else that has one). Opcodes without an immediate leave
	// it zero; SYSTEM consumers read the raw word instead.
	Imm uint64
}

// Decode predecodes one instruction word.
func Decode(raw uint32) Decoded {
	d := Decoded{
		Raw: raw,
		Op:  OpcodeOf(raw),
		Rd:  RdOf(raw),
		Rs1: Rs1Of(raw),
		Rs2: Rs2Of(raw),
		F3:  Funct3Of(raw),
		F7:  Funct7Of(raw),
	}
	switch d.Op {
	case OpLui, OpAuipc:
		d.Imm = ImmU(raw)
	case OpJal:
		d.Imm = ImmJ(raw)
	case OpJalr, OpLoad, OpImm, OpImm32:
		d.Imm = ImmI(raw)
	case OpBranch:
		d.Imm = ImmB(raw)
	case OpStore:
		d.Imm = ImmS(raw)
	}
	return d
}
