package hart

import (
	"govfm/internal/mem"
	"govfm/internal/mmu"
	"govfm/internal/rv"
)

// execute decodes and executes one instruction (the slow-path entry;
// fetchFast hands exec a cached predecoded record directly).
func (h *Hart) execute(raw uint32) {
	d := rv.Decode(raw)
	h.exec(&d)
}

// exec executes one predecoded instruction. On success it retires the
// instruction (PC and instret update); on an exception it performs trap
// entry with the PC still pointing at the faulting instruction.
func (h *Hart) exec(d *rv.Decoded) {
	h.charge(h.Cfg.Cost.Instr)
	mode := h.Mode // retirement mode: sret/mret change h.Mode mid-execute
	next := h.PC + 4
	var ei *Exc

	raw := d.Raw
	op, rd, rs1, rs2, f3, f7 := d.Op, d.Rd, d.Rs1, d.Rs2, d.F3, d.F7

	switch op {
	case rv.OpLui:
		h.SetReg(rd, d.Imm)
	case rv.OpAuipc:
		h.SetReg(rd, h.PC+d.Imm)
	case rv.OpJal:
		h.SetReg(rd, h.PC+4)
		next = h.PC + d.Imm
		h.charge(h.Cfg.Cost.Branch)
	case rv.OpJalr:
		if f3 != 0 {
			ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
			break
		}
		t := h.Reg(rs1) + d.Imm
		h.SetReg(rd, h.PC+4)
		next = t &^ 1
		h.charge(h.Cfg.Cost.Branch)
	case rv.OpBranch:
		a, b := h.Reg(rs1), h.Reg(rs2)
		var take bool
		switch f3 {
		case 0:
			take = a == b
		case 1:
			take = a != b
		case 4:
			take = int64(a) < int64(b)
		case 5:
			take = int64(a) >= int64(b)
		case 6:
			take = a < b
		case 7:
			take = a >= b
		default:
			ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
		}
		if ei == nil && take {
			next = h.PC + d.Imm
			h.charge(h.Cfg.Cost.Branch)
		}
	case rv.OpLoad:
		va := h.Reg(rs1) + d.Imm
		var v uint64
		switch f3 {
		case 0: // lb
			v, ei = h.loadExt(va, 1, true)
		case 1: // lh
			v, ei = h.loadExt(va, 2, true)
		case 2: // lw
			v, ei = h.loadExt(va, 4, true)
		case 3: // ld
			v, ei = h.loadExt(va, 8, false)
		case 4: // lbu
			v, ei = h.loadExt(va, 1, false)
		case 5: // lhu
			v, ei = h.loadExt(va, 2, false)
		case 6: // lwu
			v, ei = h.loadExt(va, 4, false)
		default:
			ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
		}
		if ei == nil {
			h.SetReg(rd, v)
		}
	case rv.OpStore:
		va := h.Reg(rs1) + d.Imm
		switch f3 {
		case 0, 1, 2, 3:
			_, ei = h.MemAccess(va, 1<<f3, mem.Write, h.Reg(rs2), false)
		default:
			ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
		}
	case rv.OpImm:
		imm := d.Imm
		a := h.Reg(rs1)
		switch f3 {
		case 0:
			h.SetReg(rd, a+imm)
		case 1:
			if raw>>26 != 0 {
				ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
				break
			}
			h.SetReg(rd, a<<(imm&63))
		case 2:
			h.SetReg(rd, boolTo64(int64(a) < int64(imm)))
		case 3:
			h.SetReg(rd, boolTo64(a < imm))
		case 4:
			h.SetReg(rd, a^imm)
		case 5:
			sh := imm & 63
			switch raw >> 26 {
			case 0:
				h.SetReg(rd, a>>sh)
			case 0x10:
				h.SetReg(rd, uint64(int64(a)>>sh))
			default:
				ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
			}
		case 6:
			h.SetReg(rd, a|imm)
		case 7:
			h.SetReg(rd, a&imm)
		}
	case rv.OpImm32:
		imm := d.Imm
		a := h.Reg(rs1)
		switch f3 {
		case 0: // addiw
			h.SetReg(rd, rv.SignExtend(uint64(uint32(a+imm)), 32))
		case 1: // slliw
			if f7 != 0 {
				ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
				break
			}
			h.SetReg(rd, rv.SignExtend(uint64(uint32(a)<<(imm&31)), 32))
		case 5:
			sh := imm & 31
			switch f7 {
			case 0: // srliw
				h.SetReg(rd, rv.SignExtend(uint64(uint32(a)>>sh), 32))
			case 0x20: // sraiw
				h.SetReg(rd, rv.SignExtend(uint64(int32(a)>>sh), 32))
			default:
				ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
			}
		default:
			ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
		}
	case rv.OpReg:
		a, b := h.Reg(rs1), h.Reg(rs2)
		switch {
		case f7 == 0x01: // M extension
			h.charge(h.Cfg.Cost.MulDiv)
			h.SetReg(rd, mulDiv64(f3, a, b))
		case f7 == 0x00 || f7 == 0x20:
			var v uint64
			v, ei = h.aluOp(f3, f7, a, b, raw)
			if ei == nil {
				h.SetReg(rd, v)
			}
		default:
			ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
		}
	case rv.OpReg32:
		a, b := h.Reg(rs1), h.Reg(rs2)
		switch {
		case f7 == 0x01: // M extension, word forms
			h.charge(h.Cfg.Cost.MulDiv)
			var v uint64
			v, ei = h.mulDiv32(f3, a, b, raw)
			if ei == nil {
				h.SetReg(rd, v)
			}
		case f7 == 0x00 || f7 == 0x20:
			var v uint64
			v, ei = h.aluOp32(f3, f7, a, b, raw)
			if ei == nil {
				h.SetReg(rd, v)
			}
		default:
			ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
		}
	case rv.OpMiscMem:
		switch f3 {
		case 0: // fence: no-op in this memory model
		case 1: // fence.i: synchronize the instruction stream with prior
			// stores — for the host that means dropping predecoded pages.
			h.flushDecode()
		default:
			ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
		}
	case rv.OpAmo:
		var v uint64
		v, ei = h.amo(raw, f3, f7>>2, rs1, rs2)
		if ei == nil {
			h.SetReg(rd, v)
		}
	case rv.OpSystem:
		next, ei = h.system(raw, f3, rd, rs1, rs2, f7, next)
	default:
		ei = h.exc(rv.ExcIllegalInstr, uint64(raw))
	}

	if ei != nil {
		h.raise(ei)
		return
	}
	h.PC = next
	h.Instret++
	if mode == rv.ModeS {
		h.SInstret++
	}
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (h *Hart) loadExt(va uint64, size int, signed bool) (uint64, *Exc) {
	v, ei := h.MemAccess(va, size, mem.Read, 0, false)
	if ei != nil {
		return 0, ei
	}
	if signed {
		v = rv.SignExtend(v, uint(8*size))
	}
	return v, nil
}

func (h *Hart) aluOp(f3, f7 uint32, a, b uint64, raw uint32) (uint64, *Exc) {
	switch {
	case f3 == 0 && f7 == 0:
		return a + b, nil
	case f3 == 0 && f7 == 0x20:
		return a - b, nil
	case f3 == 1 && f7 == 0:
		return a << (b & 63), nil
	case f3 == 2 && f7 == 0:
		return boolTo64(int64(a) < int64(b)), nil
	case f3 == 3 && f7 == 0:
		return boolTo64(a < b), nil
	case f3 == 4 && f7 == 0:
		return a ^ b, nil
	case f3 == 5 && f7 == 0:
		return a >> (b & 63), nil
	case f3 == 5 && f7 == 0x20:
		return uint64(int64(a) >> (b & 63)), nil
	case f3 == 6 && f7 == 0:
		return a | b, nil
	case f3 == 7 && f7 == 0:
		return a & b, nil
	}
	return 0, h.exc(rv.ExcIllegalInstr, uint64(raw))
}

func (h *Hart) aluOp32(f3, f7 uint32, a, b uint64, raw uint32) (uint64, *Exc) {
	switch {
	case f3 == 0 && f7 == 0:
		return rv.SignExtend(uint64(uint32(a)+uint32(b)), 32), nil
	case f3 == 0 && f7 == 0x20:
		return rv.SignExtend(uint64(uint32(a)-uint32(b)), 32), nil
	case f3 == 1 && f7 == 0:
		return rv.SignExtend(uint64(uint32(a)<<(b&31)), 32), nil
	case f3 == 5 && f7 == 0:
		return rv.SignExtend(uint64(uint32(a)>>(b&31)), 32), nil
	case f3 == 5 && f7 == 0x20:
		return rv.SignExtend(uint64(int32(a)>>(b&31)), 32), nil
	}
	return 0, h.exc(rv.ExcIllegalInstr, uint64(raw))
}

func mulDiv64(f3 uint32, a, b uint64) uint64 {
	switch f3 {
	case 0: // mul
		return a * b
	case 1: // mulh
		return uint64(mulh64(int64(a), int64(b)))
	case 2: // mulhsu
		return mulhsu64(int64(a), b)
	case 3: // mulhu
		return mulhu64(a, b)
	case 4: // div
		if b == 0 {
			return ^uint64(0)
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return a // overflow: result = dividend
		}
		return uint64(int64(a) / int64(b))
	case 5: // divu
		if b == 0 {
			return ^uint64(0)
		}
		return a / b
	case 6: // rem
		if b == 0 {
			return a
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case 7: // remu
		if b == 0 {
			return a
		}
		return a % b
	}
	return 0
}

func (h *Hart) mulDiv32(f3 uint32, a, b uint64, raw uint32) (uint64, *Exc) {
	x, y := int32(a), int32(b)
	switch f3 {
	case 0: // mulw
		return rv.SignExtend(uint64(uint32(x*y)), 32), nil
	case 4: // divw
		if y == 0 {
			return ^uint64(0), nil
		}
		if x == -1<<31 && y == -1 {
			return rv.SignExtend(uint64(uint32(x)), 32), nil
		}
		return rv.SignExtend(uint64(uint32(x/y)), 32), nil
	case 5: // divuw
		if uint32(b) == 0 {
			return ^uint64(0), nil
		}
		return rv.SignExtend(uint64(uint32(a)/uint32(b)), 32), nil
	case 6: // remw
		if y == 0 {
			return rv.SignExtend(uint64(uint32(x)), 32), nil
		}
		if x == -1<<31 && y == -1 {
			return 0, nil
		}
		return rv.SignExtend(uint64(uint32(x%y)), 32), nil
	case 7: // remuw
		if uint32(b) == 0 {
			return rv.SignExtend(uint64(uint32(a)), 32), nil
		}
		return rv.SignExtend(uint64(uint32(a)%uint32(b)), 32), nil
	}
	return 0, h.exc(rv.ExcIllegalInstr, uint64(raw))
}

// 128-bit high-multiply helpers.
func mulhu64(a, b uint64) uint64 {
	aLo, aHi := a&0xFFFFFFFF, a>>32
	bLo, bHi := b&0xFFFFFFFF, b>>32
	t := aLo*bLo>>32 + aHi*bLo
	u := t&0xFFFFFFFF + aLo*bHi
	return aHi*bHi + t>>32 + u>>32
}

func mulh64(a, b int64) int64 {
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = uint64(-a)
	}
	if b < 0 {
		ub = uint64(-b)
	}
	hi, lo := mulhu64(ua, ub), ua*ub
	if neg {
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return int64(hi)
}

func mulhsu64(a int64, b uint64) uint64 {
	if a >= 0 {
		return mulhu64(uint64(a), b)
	}
	ua := uint64(-a)
	hi, lo := mulhu64(ua, b), ua*b
	hi = ^hi
	if lo == 0 {
		hi++
	}
	return hi
}

// amo executes the A-extension instructions. AMOs and LR/SC require natural
// alignment regardless of platform misaligned-access support.
func (h *Hart) amo(raw, f3 uint32, f5 uint32, rs1, rs2 uint32) (uint64, *Exc) {
	var size int
	switch f3 {
	case 2:
		size = 4
	case 3:
		size = 8
	default:
		return 0, h.exc(rv.ExcIllegalInstr, uint64(raw))
	}
	va := h.Reg(rs1)
	switch f5 {
	case 0x02: // lr
		if rs2 != 0 {
			return 0, h.exc(rv.ExcIllegalInstr, uint64(raw))
		}
		v, ei := h.MemAccess(va, size, mem.Read, 0, true)
		if ei != nil {
			return 0, ei
		}
		h.setRes(true, va)
		if size == 4 {
			v = rv.SignExtend(v, 32)
		}
		return v, nil
	case 0x03: // sc
		if !h.resValid || h.resAddr != va {
			h.setRes(false, h.resAddr)
			// Still must be a valid access; probe alignment.
			if va%uint64(size) != 0 {
				return 0, h.exc(rv.ExcStoreAddrMisaligned, va)
			}
			return 1, nil // failure
		}
		h.setRes(false, h.resAddr)
		_, ei := h.MemAccess(va, size, mem.Write, h.Reg(rs2), true)
		if ei != nil {
			return 0, ei
		}
		return 0, nil // success
	}
	// Read-modify-write AMOs.
	if _, ok := rv.AmoCompute(f5, size, 0, 0); !ok {
		return 0, h.exc(rv.ExcIllegalInstr, uint64(raw))
	}
	old, ei := h.MemAccess(va, size, mem.Read, 0, true)
	if ei != nil {
		return 0, ei
	}
	newVal, _ := rv.AmoCompute(f5, size, old, h.Reg(rs2))
	if _, ei := h.MemAccess(va, size, mem.Write, newVal, true); ei != nil {
		return 0, ei
	}
	if size == 4 {
		old = rv.SignExtend(old, 32)
	}
	return old, nil
}

// system handles the SYSTEM opcode: CSR ops, ecall/ebreak, xRET, wfi, and
// sfence.vma. It returns the next PC (xRET and traps redirect).
func (h *Hart) system(raw uint32, f3, rd, rs1, rs2, f7 uint32, next uint64) (uint64, *Exc) {
	if f3 == rv.F3Priv {
		switch {
		case raw == rv.InstrEcall:
			var cause uint64
			switch h.Mode {
			case rv.ModeU:
				cause = rv.ExcEcallFromU
			case rv.ModeS:
				cause = rv.ExcEcallFromS
				if h.V {
					cause = rv.ExcEcallFromVS
				}
			default:
				cause = rv.ExcEcallFromM
			}
			return next, h.exc(cause, 0)
		case raw == rv.InstrEbreak:
			return next, h.exc(rv.ExcBreakpoint, h.PC)
		case raw == rv.InstrMret:
			if h.Mode != rv.ModeM {
				return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
			}
			h.ReturnMRET()
			return h.PC, nil
		case raw == rv.InstrSret:
			if h.V {
				// From the guest: VU always traps, VS traps under VTSR
				// (mstatus.TSR governs HS-mode only).
				if h.Mode == rv.ModeU ||
					rv.Bit(h.CSR.Hstatus, rv.HstatusVTSR) != 0 {
					return next, h.exc(rv.ExcVirtualInstr, uint64(raw))
				}
			} else if h.Mode == rv.ModeU ||
				(h.Mode == rv.ModeS && rv.Bit(h.CSR.Mstatus, rv.MstatusTSR) != 0) {
				return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
			}
			h.returnSRET()
			return h.PC, nil
		case raw == rv.InstrWfi:
			if h.V {
				// TW traps any less-privileged wfi as illegal; below it,
				// VU-mode and VTW raise the virtual-instruction exception.
				if rv.Bit(h.CSR.Mstatus, rv.MstatusTW) != 0 {
					return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
				}
				if h.Mode == rv.ModeU ||
					rv.Bit(h.CSR.Hstatus, rv.HstatusVTW) != 0 {
					return next, h.exc(rv.ExcVirtualInstr, uint64(raw))
				}
			} else if h.Mode == rv.ModeU ||
				(h.Mode == rv.ModeS && rv.Bit(h.CSR.Mstatus, rv.MstatusTW) != 0) {
				return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
			}
			h.Waiting = true
			return next, nil
		case f7 == rv.SfenceVMAFunct7 && rd == 0:
			if h.V {
				if h.Mode == rv.ModeU ||
					rv.Bit(h.CSR.Hstatus, rv.HstatusVTVM) != 0 {
					return next, h.exc(rv.ExcVirtualInstr, uint64(raw))
				}
			} else if h.Mode == rv.ModeU ||
				(h.Mode == rv.ModeS && rv.Bit(h.CSR.Mstatus, rv.MstatusTVM) != 0) {
				return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
			}
			h.charge(h.Cfg.Cost.TLBFlush)
			// sfence.vma: drop cached translations. The host TLB has no
			// per-vaddr/ASID precision, so specific forms flush globally —
			// conservative, never wrong.
			h.flushTLB()
			return next, nil
		case (f7 == rv.HfenceVVMAFunct7 || f7 == rv.HfenceGVMAFunct7) && rd == 0:
			if !h.Cfg.HasH {
				return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
			}
			if h.V {
				return next, h.exc(rv.ExcVirtualInstr, uint64(raw))
			}
			if h.Mode == rv.ModeU {
				return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
			}
			// TVM traps hfence.gvma from HS-mode, like hgatp accesses.
			if f7 == rv.HfenceGVMAFunct7 && h.Mode == rv.ModeS &&
				rv.Bit(h.CSR.Mstatus, rv.MstatusTVM) != 0 {
				return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
			}
			h.charge(h.Cfg.Cost.TLBFlush)
			h.flushTLB()
			return next, nil
		}
		return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
	}

	if f3 == rv.F3HLSV {
		return h.hlsv(raw, rd, rs1, rs2, next)
	}

	// Zicsr.
	csr := rv.CSROf(raw)
	var wantWrite, wantRead bool
	var operand uint64
	switch f3 {
	case rv.F3Csrrw, rv.F3Csrrwi:
		wantWrite, wantRead = true, rd != 0
	case rv.F3Csrrs, rv.F3Csrrc, rv.F3Csrrsi, rv.F3Csrrci:
		wantWrite, wantRead = rs1 != 0, true
	default:
		return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
	}
	if f3 >= rv.F3Csrrwi {
		operand = uint64(rs1) // zimm
	} else {
		operand = h.Reg(rs1)
	}

	if wantWrite && rv.CSRReadOnly(csr) {
		return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
	}
	old, ei := h.csrRead(csr)
	if ei != nil {
		return next, h.exc(ei.Cause, uint64(raw))
	}
	if wantWrite {
		var newVal uint64
		switch f3 {
		case rv.F3Csrrw, rv.F3Csrrwi:
			newVal = operand
		case rv.F3Csrrs, rv.F3Csrrsi:
			newVal = old | operand
		case rv.F3Csrrc, rv.F3Csrrci:
			newVal = old &^ operand
		}
		if ei := h.csrWrite(csr, newVal); ei != nil {
			return next, h.exc(ei.Cause, uint64(raw))
		}
	}
	if wantRead {
		h.SetReg(rd, old)
	}
	return next, nil
}

// hlsv executes the hypervisor virtual-machine load/store instructions
// (hlv/hlvx/hsv): a single memory access performed with the guest's
// two-stage translation context from HS-mode (or from U-mode when
// hstatus.HU permits), at the privilege selected by hstatus.SPVP. hlvx
// checks execute permission at the VS stage in place of read.
func (h *Hart) hlsv(raw uint32, rd, rs1, rs2 uint32, next uint64) (uint64, *Exc) {
	store, size, signed, hlvx, ok := rv.HLSVDecode(raw)
	if !ok || !h.Cfg.HasH {
		return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
	}
	if h.V {
		return next, h.exc(rv.ExcVirtualInstr, uint64(raw))
	}
	if h.Mode == rv.ModeU && rv.Bit(h.CSR.Hstatus, rv.HstatusHU) == 0 {
		return next, h.exc(rv.ExcIllegalInstr, uint64(raw))
	}
	priv := rv.ModeU
	if rv.Bit(h.CSR.Hstatus, rv.HstatusSPVP) != 0 {
		priv = rv.ModeS
	}
	acc := mem.Read
	if store {
		acc = mem.Write
	}
	va := h.Reg(rs1)
	if va%uint64(size) != 0 && !h.Cfg.HWMisaligned {
		return next, h.exc(misalignedCause(acc), va)
	}
	res := mmu.Translate(h.mmuEnv(priv, true, hlvx), va, acc)
	if !res.OK {
		ei := h.exc(res.Cause, va)
		ei.Gpa = res.GPA
		return next, ei
	}
	if !h.CSR.PMP.Check(res.PA, size, acc, priv) {
		return next, h.exc(accessFaultCause(acc), va)
	}
	h.charge(h.Cfg.Cost.MemAccess)
	if store {
		if !h.Bus.Store(res.PA, size, h.Reg(rs2)) {
			return next, h.exc(rv.ExcStoreAccessFault, va)
		}
		h.KillReservations(res.PA)
		return next, nil
	}
	v, loaded := h.Bus.Load(res.PA, size)
	if !loaded {
		return next, h.exc(rv.ExcLoadAccessFault, va)
	}
	if signed {
		v = rv.SignExtend(v, uint(8*size))
	}
	h.SetReg(rd, v)
	return next, nil
}
