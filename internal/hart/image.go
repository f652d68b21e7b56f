package hart

import (
	"fmt"

	"govfm/internal/dev/clint"
	"govfm/internal/dev/iopmp"
	"govfm/internal/dev/plic"
	"govfm/internal/dev/uart"
	"govfm/internal/mem"
)

// DMASnapshot is a copy of the DMA engine's register state. The IOPMP hook
// (host wiring) is not captured; NewMachine rewires it.
type DMASnapshot struct {
	Src, Dst, Len, Stat uint64
}

// Checkpoint captures the DMA engine's registers for later Restore.
func (d *DMAEngine) Checkpoint() DMASnapshot {
	return DMASnapshot{Src: d.src, Dst: d.dst, Len: d.len, Stat: d.stat}
}

// Restore rewinds the DMA engine's registers to a checkpoint.
func (d *DMAEngine) Restore(s DMASnapshot) {
	d.src, d.dst, d.len, d.stat = s.Src, s.Dst, s.Len, s.Stat
}

// Image is a complete machine image: RAM shared copy-on-write with the
// origin machine (mem.RAMSnapshot), every hart's architectural state, and
// every device — CLINT, PLIC, UART, DMA, and IOPMP. Unlike the narrower
// MachineSnapshot (which rewinds one machine in place for replay
// harnesses), an Image is self-contained: SpawnFromImage builds an
// independent machine from it, and any number of machines may be spawned
// from one image and run concurrently with the origin.
//
// Host-side state deliberately travels outside the image: predecode/TLB
// caches with the TLB's PMP page verdicts, watched lines, Perf counters,
// and the Monitor/Watchdog/Trace hooks all belong to a machine, not an
// image. A spawned machine starts with cold caches that re-arm on first
// use, which the machine-equivalence fuzz gate proves is invisible in
// simulated time.
// The one host object an image shares is each hart's PMP view intern
// table (pmp.Views): a spawned machine interns into its origin's, so a
// view ID names the same contents on both.
type Image struct {
	Cfg      *Config
	DramSize uint64

	Mem   *mem.RAMSnapshot
	Harts []*Snapshot
	Clint clint.Snapshot
	Plic  plic.Snapshot
	Uart  uart.Snapshot
	DMA   DMASnapshot
	IOPMP *iopmp.Snapshot // nil when the platform has no IOPMP

	TimeRemainder uint64
	Halted        bool
	HaltReason    string

	FastPath   bool
	Superblock bool
}

// Snapshot captures the complete machine as an Image in O(pages touched
// since the last snapshot), sealing the current RAM generation. It may be
// taken between machine steps or from inside a monitor handler: every
// store a hart makes reaches the bus before its step ends, so there is no
// in-flight state to tear. The error result is always nil today.
func (m *Machine) Snapshot() (*Image, error) {
	img := &Image{
		Cfg:           m.Cfg,
		DramSize:      m.DramSize,
		Mem:           m.Bus.Snapshot(),
		Clint:         m.Clint.Checkpoint(),
		Plic:          m.Plic.Checkpoint(),
		Uart:          m.Uart.Checkpoint(),
		DMA:           m.DMA.Checkpoint(),
		TimeRemainder: m.timeRemainder,
		Halted:        m.halted,
		HaltReason:    m.haltReason,
		FastPath:      m.Harts[0].fast.on,
		Superblock:    m.Harts[0].sb.on,
	}
	if m.IOPMP != nil {
		s := m.IOPMP.Checkpoint()
		img.IOPMP = &s
	}
	for _, h := range m.Harts {
		img.Harts = append(img.Harts, h.Checkpoint())
	}
	return img, nil
}

// LoadImageState installs img into m. The machine must have the same shape
// (profile hart count, DRAM size, IOPMP presence) as the image's origin.
// RAM stays page-shared with every other holder of the image; the machine
// copy-on-writes pages as it runs. Host caches are flushed and re-arm
// against this machine's own bus.
func (m *Machine) LoadImageState(img *Image) error {
	if len(img.Harts) != len(m.Harts) {
		return fmt.Errorf("hart: image has %d harts, machine has %d", len(img.Harts), len(m.Harts))
	}
	if (img.IOPMP != nil) != (m.IOPMP != nil) {
		return fmt.Errorf("hart: image and machine disagree on IOPMP presence")
	}
	if err := m.Bus.LoadSnapshot(img.Mem); err != nil {
		return err
	}
	for i, h := range m.Harts {
		h.Restore(img.Harts[i]) // flushes predecode and TLB
	}
	m.Clint.Restore(img.Clint)
	m.Plic.Restore(img.Plic)
	m.Uart.Restore(img.Uart)
	m.DMA.Restore(img.DMA)
	if m.IOPMP != nil {
		m.IOPMP.Restore(*img.IOPMP)
	}
	m.timeRemainder = img.TimeRemainder
	m.halted = img.Halted
	m.haltReason = img.HaltReason
	m.SetFastPath(img.FastPath)
	// Only the tier switch travels in the image: translated blocks are host
	// state, dropped with the predecode pages above; the child re-heats and
	// re-translates (bit-identical — the machine-equivalence gate sweeps this).
	m.SetSuperblock(img.Superblock)
	return nil
}

// SpawnFromImage builds a fresh, independent machine from an image. The
// child shares every clean RAM page with the image (and hence with the
// origin machine and its other children); pages are copied off on first
// write by whoever writes first. The child carries no monitor, watchdog,
// or trace hooks — attach those after spawning.
func SpawnFromImage(img *Image) (*Machine, error) {
	m, err := NewMachine(img.Cfg, img.DramSize)
	if err != nil {
		return nil, err
	}
	if err := m.LoadImageState(img); err != nil {
		return nil, err
	}
	return m, nil
}

// Fork snapshots the machine and spawns a child from the image in one
// step. Parent and child may run concurrently afterwards: the pages they
// share are sealed by the snapshot, and each side copy-on-writes its own
// divergence.
func (m *Machine) Fork() (*Machine, error) {
	img, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	return SpawnFromImage(img)
}
