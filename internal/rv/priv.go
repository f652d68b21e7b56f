package rv

import "fmt"

// Mode is a RISC-V privilege mode. The encoding follows the privileged spec's
// two-bit mode numbers as used in mstatus.MPP.
type Mode uint8

const (
	ModeU Mode = 0 // user
	ModeS Mode = 1 // supervisor
	ModeM Mode = 3 // machine
)

func (m Mode) String() string {
	switch m {
	case ModeU:
		return "U"
	case ModeS:
		return "S"
	case ModeM:
		return "M"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Valid reports whether m is one of the three architected modes.
func (m Mode) Valid() bool { return m == ModeU || m == ModeS || m == ModeM }

// mstatus field positions (RV64).
const (
	MstatusSIE   = 1
	MstatusMIE   = 3
	MstatusSPIE  = 5
	MstatusUBE   = 6
	MstatusMPIE  = 7
	MstatusSPP   = 8
	MstatusVSLo  = 9 // VS[1:0] -> bits 10:9
	MstatusVSHi  = 10
	MstatusMPPLo = 11 // MPP[1:0] -> bits 12:11
	MstatusMPPHi = 12
	MstatusFSLo  = 13
	MstatusFSHi  = 14
	MstatusXSLo  = 15
	MstatusXSHi  = 16
	MstatusMPRV  = 17
	MstatusSUM   = 18
	MstatusMXR   = 19
	MstatusTVM   = 20
	MstatusTW    = 21
	MstatusTSR   = 22
	MstatusUXLLo = 32
	MstatusUXLHi = 33
	MstatusSXLLo = 34
	MstatusSXLHi = 35
	MstatusSBE   = 36
	MstatusMBE   = 37
	MstatusSD    = 63
)

// mstatus hypervisor-extension field positions (RV64, present when misa.H).
const (
	MstatusGVA = 38 // trap value was a guest virtual address
	MstatusMPV = 39 // virtualization mode before the trap to M
)

// hstatus field positions.
const (
	HstatusVSBE = 5  // VS-mode big-endian (hardwired 0)
	HstatusGVA  = 6  // trap value was a guest virtual address
	HstatusSPV  = 7  // virtualization mode before the trap to HS
	HstatusSPVP = 8  // privilege before the trap, when taken from V=1
	HstatusHU   = 9  // hlv/hsv usable from U-mode
	HstatusVTVM = 20 // trap VS-mode satp/sfence.vma accesses
	HstatusVTW  = 21 // trap VS-mode wfi
	HstatusVTSR = 22 // trap VS-mode sret
)

// MPP extracts mstatus.MPP as a Mode.
func MPP(mstatus uint64) Mode { return Mode(Bits(mstatus, MstatusMPPHi, MstatusMPPLo)) }

// WithMPP returns mstatus with MPP set to m.
func WithMPP(mstatus uint64, m Mode) uint64 {
	return SetBits(mstatus, MstatusMPPHi, MstatusMPPLo, uint64(m))
}

// DataPriv returns the privilege and virtualization mode that govern a
// data access made at (mode, virt) under mstatus: with MPRV set, MPP and,
// on a hart with the hypervisor extension, MPV unless MPP is M; otherwise
// (mode, virt) itself.
func DataPriv(mstatus uint64, mode Mode, virt, hasH bool) (Mode, bool) {
	if mstatus>>MstatusMPRV&1 != 0 {
		mpp := Mode(mstatus >> MstatusMPPLo & 3)
		return mpp, hasH && mpp != ModeM && mstatus>>MstatusMPV&1 != 0
	}
	return mode, virt
}

// SPP extracts mstatus.SPP as a Mode (U or S).
func SPP(mstatus uint64) Mode { return Mode(Bit(mstatus, MstatusSPP)) }

// Interrupt bit positions in mip/mie/mideleg (and sip/sie).
const (
	IntSSoft   = 1  // supervisor software interrupt (SSIP/SSIE)
	IntVSSoft  = 2  // virtual supervisor software interrupt (VSSIP/VSSIE)
	IntMSoft   = 3  // machine software interrupt (MSIP/MSIE)
	IntSTimer  = 5  // supervisor timer interrupt (STIP/STIE)
	IntVSTimer = 6  // virtual supervisor timer interrupt (VSTIP/VSTIE)
	IntMTimer  = 7  // machine timer interrupt (MTIP/MTIE)
	IntSExt    = 9  // supervisor external interrupt (SEIP/SEIE)
	IntVSExt   = 10 // virtual supervisor external interrupt (VSEIP/VSEIE)
	IntMExt    = 11 // machine external interrupt (MEIP/MEIE)
)

// MIntMask is the set of M-mode interrupt bits; SIntMask the S-mode ones;
// VSIntMask the VS-mode ones (hip/hie/hvip/hideleg).
const (
	MIntMask  uint64 = 1<<IntMSoft | 1<<IntMTimer | 1<<IntMExt
	SIntMask  uint64 = 1<<IntSSoft | 1<<IntSTimer | 1<<IntSExt
	VSIntMask uint64 = 1<<IntVSSoft | 1<<IntVSTimer | 1<<IntVSExt
)

// IsVSInt reports whether an interrupt code is one of the VS-level codes.
// When delivered in VS-mode their vscause code is the S-level one (code-1).
func IsVSInt(code uint64) bool {
	return code == IntVSSoft || code == IntVSTimer || code == IntVSExt
}

// Exception cause codes (mcause with interrupt bit clear).
const (
	ExcInstrAddrMisaligned uint64 = 0
	ExcInstrAccessFault    uint64 = 1
	ExcIllegalInstr        uint64 = 2
	ExcBreakpoint          uint64 = 3
	ExcLoadAddrMisaligned  uint64 = 4
	ExcLoadAccessFault     uint64 = 5
	ExcStoreAddrMisaligned uint64 = 6
	ExcStoreAccessFault    uint64 = 7
	ExcEcallFromU          uint64 = 8
	ExcEcallFromS          uint64 = 9
	ExcEcallFromVS         uint64 = 10
	ExcEcallFromM          uint64 = 11
	ExcInstrPageFault      uint64 = 12
	ExcLoadPageFault       uint64 = 13
	ExcStorePageFault      uint64 = 15
	ExcInstrGuestPageFault uint64 = 20
	ExcLoadGuestPageFault  uint64 = 21
	ExcVirtualInstr        uint64 = 22
	ExcStoreGuestPageFault uint64 = 23
)

// CauseWritesGVA reports whether a trap with this (exception) cause writes a
// guest virtual address into xtval, which is what the GVA bits latch when
// the trap was taken from V=1.
func CauseWritesGVA(code uint64) bool {
	switch code {
	case ExcInstrAddrMisaligned, ExcInstrAccessFault, ExcBreakpoint,
		ExcLoadAddrMisaligned, ExcLoadAccessFault,
		ExcStoreAddrMisaligned, ExcStoreAccessFault,
		ExcInstrPageFault, ExcLoadPageFault, ExcStorePageFault,
		ExcInstrGuestPageFault, ExcLoadGuestPageFault, ExcStoreGuestPageFault:
		return true
	}
	return false
}

// CauseInterruptBit is the top bit of mcause on RV64, set for interrupts.
const CauseInterruptBit uint64 = 1 << 63

// Cause packs an exception/interrupt code into an mcause value.
func Cause(code uint64, interrupt bool) uint64 {
	if interrupt {
		return code | CauseInterruptBit
	}
	return code
}

// CauseIsInterrupt reports whether an mcause value denotes an interrupt.
func CauseIsInterrupt(cause uint64) bool { return cause&CauseInterruptBit != 0 }

// CauseCode strips the interrupt bit from an mcause value.
func CauseCode(cause uint64) uint64 { return cause &^ CauseInterruptBit }

// CauseString renders an mcause value for logs and traces.
func CauseString(cause uint64) string {
	code := CauseCode(cause)
	if CauseIsInterrupt(cause) {
		switch code {
		case IntVSSoft:
			return "vs-software-interrupt"
		case IntVSTimer:
			return "vs-timer-interrupt"
		case IntVSExt:
			return "vs-external-interrupt"
		case IntSSoft:
			return "supervisor-software-interrupt"
		case IntMSoft:
			return "machine-software-interrupt"
		case IntSTimer:
			return "supervisor-timer-interrupt"
		case IntMTimer:
			return "machine-timer-interrupt"
		case IntSExt:
			return "supervisor-external-interrupt"
		case IntMExt:
			return "machine-external-interrupt"
		}
		return fmt.Sprintf("interrupt(%d)", code)
	}
	switch code {
	case ExcInstrAddrMisaligned:
		return "instr-addr-misaligned"
	case ExcInstrAccessFault:
		return "instr-access-fault"
	case ExcIllegalInstr:
		return "illegal-instruction"
	case ExcBreakpoint:
		return "breakpoint"
	case ExcLoadAddrMisaligned:
		return "load-addr-misaligned"
	case ExcLoadAccessFault:
		return "load-access-fault"
	case ExcStoreAddrMisaligned:
		return "store-addr-misaligned"
	case ExcStoreAccessFault:
		return "store-access-fault"
	case ExcEcallFromU:
		return "ecall-from-u"
	case ExcEcallFromS:
		return "ecall-from-s"
	case ExcEcallFromVS:
		return "ecall-from-vs"
	case ExcEcallFromM:
		return "ecall-from-m"
	case ExcInstrPageFault:
		return "instr-page-fault"
	case ExcLoadPageFault:
		return "load-page-fault"
	case ExcStorePageFault:
		return "store-page-fault"
	case ExcInstrGuestPageFault:
		return "instr-guest-page-fault"
	case ExcLoadGuestPageFault:
		return "load-guest-page-fault"
	case ExcVirtualInstr:
		return "virtual-instruction"
	case ExcStoreGuestPageFault:
		return "store-guest-page-fault"
	}
	return fmt.Sprintf("exception(%d)", code)
}

// misa extension bits.
const (
	MisaA = 1 << 0
	MisaC = 1 << 2
	MisaD = 1 << 3
	MisaF = 1 << 5
	MisaH = 1 << 7
	MisaI = 1 << 8
	MisaM = 1 << 12
	MisaS = 1 << 18
	MisaU = 1 << 20
)

// MisaMXL64 encodes MXL=2 (XLEN=64) in misa[63:62].
const MisaMXL64 uint64 = 2 << 62

// satp fields (Sv39). hgatp shares the layout with mode Sv39x4 and a
// 16KiB-aligned root (PPN[1:0] = 0).
const (
	SatpModeBare    uint64 = 0
	SatpModeSv39    uint64 = 8
	HgatpModeSv39x4 uint64 = 8
)

// SatpMode extracts satp.MODE (bits 63:60).
func SatpMode(satp uint64) uint64 { return Bits(satp, 63, 60) }

// SatpPPN extracts satp.PPN (bits 43:0).
func SatpPPN(satp uint64) uint64 { return Bits(satp, 43, 0) }

// SatpASID extracts satp.ASID (bits 59:44).
func SatpASID(satp uint64) uint64 { return Bits(satp, 59, 44) }
