package hart

import (
	"govfm/internal/dev/clint"
	"govfm/internal/rv"
)

// Snapshot is a deep copy of one hart's architectural state, sufficient to
// restore the hart to an exact earlier point. Lockstep differential
// harnesses checkpoint a pristine machine once and restore before every
// test case, so each case starts from a bit-identical machine regardless
// of what the previous case did.
type Snapshot struct {
	Regs     [32]uint64
	PC       uint64
	Mode     uint64
	Cycles   uint64
	Instret  uint64
	SInstret uint64

	Waiting    bool
	Stopped    bool
	Halted     bool
	HaltReason string

	ResValid bool
	ResAddr  uint64

	CSR CSRFile
}

// clone deep-copies a CSR file: the embedded PMP file and the custom-CSR
// map are the only reference-typed members.
func (c *CSRFile) clone() CSRFile {
	t := *c
	if c.PMP != nil {
		t.PMP = c.PMP.Clone()
	}
	t.Custom = make(map[uint16]uint64, len(c.Custom))
	for k, v := range c.Custom {
		t.Custom[k] = v
	}
	return t
}

// Checkpoint captures the hart's complete architectural state.
func (h *Hart) Checkpoint() *Snapshot {
	return &Snapshot{
		Regs:       h.Regs,
		PC:         h.PC,
		Mode:       uint64(h.Mode),
		Cycles:     h.Cycles,
		Instret:    h.Instret,
		SInstret:   h.SInstret,
		Waiting:    h.Waiting,
		Stopped:    h.Stopped,
		Halted:     h.Halted,
		HaltReason: h.HaltReason,
		ResValid:   h.resValid,
		ResAddr:    h.resAddr,
		CSR:        h.CSR.clone(),
	}
}

// Restore rewinds the hart to a checkpoint. The configuration pointer is
// preserved (a snapshot is only meaningful on the hart that took it or an
// identically configured one).
func (h *Hart) Restore(s *Snapshot) {
	cfg := h.CSR.cfg
	h.Regs = s.Regs
	h.PC = s.PC
	h.Mode = rv.Mode(s.Mode)
	h.Cycles = s.Cycles
	h.Instret = s.Instret
	h.SInstret = s.SInstret
	h.Waiting = s.Waiting
	h.Stopped = s.Stopped
	h.Halted = s.Halted
	h.HaltReason = s.HaltReason
	h.setRes(s.ResValid, s.ResAddr)
	h.CSR = s.CSR.clone()
	h.CSR.cfg = cfg
	// The restored PMP clone carries the intern table of the hart that
	// took the snapshot (a machine spawned from an image shares its
	// origin's). Drop every host cache.
	h.flushDecode()
	h.flushTLB()
}

// MipSW returns the software-writable mip bits, for differential harnesses
// that need the raw component rather than the composed Mip view.
func (c *CSRFile) MipSW() uint64 { return c.mipSW }

// MachineSnapshot captures the state Machine.Restore needs for
// deterministic re-runs: every hart plus the CLINT (the one device whose
// state — mtime, mtimecmp, msip — feeds back into hart-visible behaviour
// through the interrupt lines and the time CSR). Other device state (PLIC,
// UART, DMA, IOPMP) is not captured; harnesses that program those devices
// must reset them separately.
type MachineSnapshot struct {
	Harts         []*Snapshot
	Clint         clint.Snapshot
	TimeRemainder uint64
	Halted        bool
	HaltReason    string
}

// Checkpoint captures the machine state needed for deterministic replay.
func (m *Machine) Checkpoint() *MachineSnapshot {
	s := &MachineSnapshot{
		Clint:         m.Clint.Checkpoint(),
		TimeRemainder: m.timeRemainder,
		Halted:        m.halted,
		HaltReason:    m.haltReason,
	}
	for _, h := range m.Harts {
		s.Harts = append(s.Harts, h.Checkpoint())
	}
	return s
}

// Restore rewinds the machine to a checkpoint taken on it earlier.
func (m *Machine) Restore(s *MachineSnapshot) {
	for i, h := range m.Harts {
		h.Restore(s.Harts[i])
	}
	m.Clint.Restore(s.Clint)
	m.timeRemainder = s.TimeRemainder
	m.halted = s.Halted
	m.haltReason = s.HaltReason
}
