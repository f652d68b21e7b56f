package hart

import (
	"fmt"

	"govfm/internal/dev/clint"
	"govfm/internal/dev/iopmp"
	"govfm/internal/dev/plic"
	"govfm/internal/dev/uart"
	"govfm/internal/mem"
	"govfm/internal/rv"
)

// Physical memory map of the simulated platforms (the usual RISC-V SoC
// layout both evaluation boards follow).
const (
	ExitBase  = 0x0010_0000 // test-finisher device (QEMU sifive_test style)
	ClintBase = 0x0200_0000
	PlicBase  = 0x0C00_0000
	UartBase  = 0x1000_0000
	DMABase   = 0x3000_0000 // DMA-capable device (sandbox policy target)
	IOPMPBase = 0x3100_0000 // IOPMP unit (when the platform has one)
	DramBase  = 0x8000_0000
)

// Exit-device command values.
const (
	ExitPass = 0x5555
	ExitFail = 0x3333
)

// exitDevice halts the machine when guest code stores a completion code,
// standing in for the SiFive test finisher used to end QEMU runs.
type exitDevice struct {
	m *Machine
}

func (d *exitDevice) Name() string { return "exit" }

func (d *exitDevice) Load(off uint64, size int) (uint64, bool) { return 0, true }

func (d *exitDevice) Store(off uint64, size int, v uint64) bool {
	switch uint32(v) & 0xFFFF {
	case ExitPass:
		d.m.halt("guest-exit-pass")
	case ExitFail:
		d.m.halt(fmt.Sprintf("guest-exit-fail(code=%d)", v>>16))
	default:
		d.m.halt(fmt.Sprintf("guest-exit(%#x)", v))
	}
	return true
}

// Machine is a full simulated platform: harts, DRAM, and devices, with a
// deterministic round-robin scheduler and a shared mtime derived from
// consumed cycles.
type Machine struct {
	Cfg   *Config
	Bus   *mem.Bus
	Harts []*Hart
	Clint *clint.Clint
	Plic  *plic.Plic
	Uart  *uart.Uart
	DMA   *DMAEngine
	IOPMP *iopmp.IOPMP // non-nil when Cfg.HasIOPMP

	DramSize uint64

	halted     bool
	haltReason string

	timeRemainder uint64

	// resHolders counts the harts holding an LR/SC reservation.
	resHolders int
}

// NewMachine builds a platform from a profile with the given DRAM size.
func NewMachine(cfg *Config, dramSize uint64) (*Machine, error) {
	m := &Machine{
		Cfg:      cfg,
		Bus:      mem.NewBus(),
		Clint:    clint.New(cfg.Harts),
		Plic:     plic.New(cfg.Harts),
		Uart:     uart.New(),
		DramSize: dramSize,
	}
	m.DMA = NewDMAEngine(m.Bus)
	if err := m.Bus.AddRAM(DramBase, dramSize); err != nil {
		return nil, err
	}
	for _, d := range []struct {
		base, size uint64
		dev        mem.Device
	}{
		{ExitBase, 0x1000, &exitDevice{m}},
		{ClintBase, clint.Size, m.Clint},
		{PlicBase, plic.Size, m.Plic},
		{UartBase, uart.Size, m.Uart},
		{DMABase, DMARegionSize, m.DMA},
	} {
		if err := m.Bus.AddDevice(d.base, d.size, d.dev); err != nil {
			return nil, err
		}
	}
	if cfg.HasIOPMP {
		m.IOPMP = iopmp.New(8)
		if err := m.Bus.AddDevice(IOPMPBase, iopmp.Size, m.IOPMP); err != nil {
			return nil, err
		}
		m.DMA.Check = m.IOPMP.Check
	}
	for i := 0; i < cfg.Harts; i++ {
		h := New(i, cfg, m.Bus)
		h.TimeFn = m.Clint.Time
		m.Harts = append(m.Harts, h)
	}
	// Wire every hart to its peers so a store can kill their overlapping
	// LR/SC reservations, as cache coherence does on real hardware, and to
	// the machine's count of reservation holders.
	for _, h := range m.Harts {
		h.resHolders = &m.resHolders
		for _, p := range m.Harts {
			if p != h {
				h.peers = append(h.peers, p)
			}
		}
	}
	return m, nil
}

func (m *Machine) halt(reason string) {
	m.halted = true
	m.haltReason = reason
}

// Halted reports whether the machine has stopped, and why.
func (m *Machine) Halted() (bool, string) { return m.halted, m.haltReason }

// SetFastPath toggles every host-side acceleration cache in the machine:
// the harts' predecode caches and TLBs (with their cached PMP page
// verdicts) and the PLIC's pending memoization. Off reproduces the
// pre-acceleration simulator exactly; the architectural results are
// identical either way (enforced by the lockstep fuzzer's interpreter
// twin and the machine-equivalence gate).
func (m *Machine) SetFastPath(on bool) {
	for _, h := range m.Harts {
		h.SetFastPath(on)
	}
	m.Plic.SetCache(on)
}

// SetSuperblock toggles the superblock binary-translation tier on every
// hart (superblock.go). Translations are host state only; toggling drops
// them all and changes no architectural state.
func (m *Machine) SetSuperblock(on bool) {
	for _, h := range m.Harts {
		h.SetSuperblock(on)
	}
}

// SuperblockEnabled reports whether the superblock tier is on (hart 0
// stands for the machine; the setter applies uniformly).
func (m *Machine) SuperblockEnabled() bool {
	return len(m.Harts) > 0 && m.Harts[0].sb.on
}

// LoadImage copies a binary image into RAM at addr.
func (m *Machine) LoadImage(addr uint64, img []byte) error {
	return m.Bus.WriteBytes(addr, img)
}

// Reset returns the machine to power-on state: every hart at the reset
// vector with a0 = hartid, the standard RISC-V boot convention (a1, the
// devicetree pointer, is left zero); CSRs (including PMP) at reset values;
// cycle/instret counters zeroed; LR/SC reservations dropped; and the
// devices — CLINT, PLIC, UART, DMA, IOPMP — back to their power-on state
// with mtime zero. Host-side hooks (Monitor, Watchdog, Trace, TimeFn,
// OnTrap) and the Perf counters survive, so a harness can keep observing
// across boots. A second boot on a reused machine is indistinguishable
// from a first boot on a fresh one.
func (m *Machine) Reset(pc uint64) {
	for _, h := range m.Harts {
		h.PC = pc
		h.Mode = rv.ModeM
		h.Regs = [32]uint64{}
		h.Regs[10] = uint64(h.ID) // a0
		h.Waiting = false
		h.Stopped = false
		h.Halted = false
		h.HaltReason = ""
		h.Cycles, h.Instret, h.SInstret = 0, 0, 0
		h.setRes(false, 0)
		views := h.CSR.PMP.Views()
		h.CSR = newCSRFile(h.Cfg)
		// Reset is a power cycle: PMP locks are legitimately cleared. The
		// hart keeps its view intern table, so an ID it issued before the
		// reset still names the same contents after it.
		h.CSR.PMP.SetViews(views)
		h.sb.armed = false
		// The fresh CSR file brings a fresh PMP: drop every host cache.
		h.flushDecode()
		h.flushTLB()
	}
	m.halted = false
	m.haltReason = ""
	m.timeRemainder = 0
	m.Clint.Reset()
	m.Plic.Reset()
	m.Uart.Reset()
	m.DMA.Reset()
	if m.IOPMP != nil {
		m.IOPMP.Reset()
	}
}

// Step advances every runnable hart by one instruction and the global time
// by the cycles the slowest hart consumed (cores share a wall clock).
func (m *Machine) Step() { m.stepSeq(1) }

// stepSeq runs sequential machine steps within a step budget and returns
// how many it ran (>= 1). A step latches every hart's interrupt lines,
// steps the harts in ID order, and advances mtime by the cycles the slowest
// hart consumed (cores share a wall clock). With a budget above one, harts
// with the superblock tier and fast paths on and no per-step watchdog run
// translated code, and the architectural trace — mtime and the interrupt
// latch points included — stays bit-identical to per-instruction stepping:
//
//   - A single hart may retire up to budget instructions from its blocks in
//     one step, bounded by sbSeqHeadroom, or batch idle WFI polls
//     (wfiBatch).
//   - On a multi-hart machine each hart enters its block at its own turn
//     and retires only the block's first op. If every hart then holds a
//     block cursor, waits idle in WFI, or is stopped, seqRound runs further
//     steps, one op per hart per step, in the interpreter's interleaving.
func (m *Machine) stepSeq(budget uint64) uint64 {
	// Latch every hart's interrupt lines before any hart steps, so an MSIP
	// or mtimecmp write during this step becomes visible to every hart at
	// the same step boundary. (Sampling per hart just before its own step
	// made visibility asymmetric by hart ID: hart 0's IPI reached hart 1
	// within the step, but not vice versa.)
	for _, h := range m.Harts {
		h.CSR.SetHWLines(m.Clint.Pending(h.ID) | m.Plic.Pending(h.ID))
	}
	arm := budget > 1
	multi := len(m.Harts) > 1
	round := arm && multi // every hart so far can go on in a round
	stepEq := uint64(1)
	var maxConsumed uint64
	for _, h := range m.Harts {
		var c uint64
		h.sb.cur.sb = nil // a round resumes only a block entered at this step
		tier := arm && h.sb.on && h.fast.on && h.Watchdog == nil
		switch {
		case !tier || h.Stopped || h.Halted:
			round = round && tier
			c = m.stepHart(h)
		case h.Waiting && multi:
			round = round && h.idlePoll()
			c = m.stepHart(h)
		case h.Waiting:
			// WFI fast-forward: batch the idle polls this step's latch has
			// already proven identical (see wfiBatch). Falls through to a
			// normal step when the hart is waking or a comparator is close.
			before := h.Cycles
			if k := m.wfiBatch(h, budget); k > 0 {
				stepEq, c = k, h.Cycles-before
			} else {
				c = m.stepHart(h)
			}
		default:
			h.sb.armed = true
			if multi {
				// One op now; seqRound resumes the block from h.sb.cur.
				h.sb.cycleLimit, h.sb.stepLimit = ^uint64(0), 1
			} else {
				// The timer-headroom cycle limit is deferred to runBlock
				// via the lazy closure: most armed steps never dispatch a
				// block (cold code, untranslatable entries, waiting in a
				// trap handler), and paying sbSeqHeadroom's divisions on
				// each of them shows up on trap-heavy workloads.
				if h.sb.limitFn == nil {
					hh := h
					h.sb.limitFn = func() uint64 { return m.sbSeqHeadroom(hh) }
				}
				h.sb.lazyLimit = true
				h.sb.stepLimit = budget
			}
			c = m.stepHart(h)
			h.sb.armed = false
			h.sb.lazyLimit = false
			stepEq = max(stepEq, h.sb.retired)
			round = round && h.sb.cur.sb != nil
		}
		maxConsumed = max(maxConsumed, c)
	}
	if round && !m.halted {
		return m.seqRound(budget, maxConsumed)
	}
	m.advanceTime(maxConsumed)
	return stepEq
}

// stepHart runs hart h's turn of a sequential step through Hart.Step, with
// its watchdog and halt propagation, and returns the cycles it consumed.
func (m *Machine) stepHart(h *Hart) uint64 {
	before := h.Cycles
	h.Step()
	if h.Watchdog != nil {
		h.Watchdog(h)
	}
	if h.Halted && !m.halted {
		m.halt("hart-halt: " + h.HaltReason)
	}
	return h.Cycles - before
}

// seqRound goes on with a multi-hart step after which every hart holds a
// block cursor, waits idle in WFI, or is stopped (stepSeq), and returns how
// many steps the call ran, that first step included. consumed is the first
// step's clock charge.
//
// Each further step runs, in hart-ID order, one op per hart from its cursor
// — chaining into a same-page successor by runBlock's rule (Hart.sbNext) —
// or charges an idle hart its poll, then adds the step's largest charge to
// the clock. That is the interpreter's own interleaving, so cross-hart
// stores, code patches and reservation kills land between the same two
// instructions.
// What the skipped latches, interrupt checks and fetches would read cannot
// change within the round: ops touch only RAM, so device state and the
// latched lines stay put, and the round stops at a step boundary before
// the clock reaches any hart's timer comparator (the machine-wide
// headroom) or the budget runs out. It also stops after a step in which a
// hart's chain ended. When an op aborts, or a write ended a hart's block
// (endAfter), the clock is brought current and the interpreter finishes
// that step from that hart on.
func (m *Machine) seqRound(budget, consumed uint64) uint64 {
	limit := ^uint64(0)
	for _, h := range m.Harts {
		limit = min(limit, m.sbSeqHeadroom(h))
		if h.sb.cur.sb != nil {
			h.Perf.SBRounds++
		}
	}
	steps := uint64(1)
	for steps < budget && consumed < limit {
		var maxC uint64
		ended := false
		for i, h := range m.Harts {
			c := &h.sb.cur
			if c.sb == nil {
				// Idle in WFI, or stopped.
				if h.Waiting && !h.Stopped && !h.Halted {
					h.charge(h.Cfg.Cost.WFIIdle)
					maxC = max(maxC, h.Cfg.Cost.WFIIdle)
				}
				continue
			}
			before := h.Cycles
			if !h.sb.endAfter {
				next, ok := c.sb.ops[c.op](h, h.PC)
				k := 1
				if !ok {
					k, next = h.sbStop(0, h.PC, next)
				}
				if k == 1 {
					// Retired; a write that ended the block ends the round
					// at this hart's next turn.
					h.PC = next
					h.sbRetire(1)
					h.Perf.SBRetired++
					if c.op++; c.op == len(c.sb.ops) {
						c.op = 0
						if c.sb = h.sbNext(c.dp, c.sb, c.page); c.sb != nil {
							h.Perf.SBChains++
						} else {
							ended = true
						}
					}
					maxC = max(maxC, h.Cycles-before)
					continue
				}
			}
			// The op aborted or a write ended the block: bring the clock
			// current and let the interpreter finish the step.
			m.advanceTime(consumed)
			for _, h := range m.Harts[i:] {
				maxC = max(maxC, m.stepHart(h))
			}
			m.advanceTime(maxC)
			return steps + 1
		}
		consumed += maxC
		steps++
		if ended {
			break
		}
	}
	m.advanceTime(consumed)
	return steps
}

// advanceTime adds consumed cycles to the wall clock: mtime moves by whole
// ticks and the remainder carries, so advancing once by a sum of step
// charges lands exactly where advancing after each step would.
func (m *Machine) advanceTime(consumed uint64) {
	m.timeRemainder += consumed
	if m.Cfg.CyclesPerTick > 0 {
		m.Clint.Advance(m.timeRemainder / m.Cfg.CyclesPerTick)
		m.timeRemainder %= m.Cfg.CyclesPerTick
	}
}

// idlePoll reports whether hart h's next Step is an idle WFI poll, exactly
// as Hart.Step decides it: the hart waits, no enabled interrupt is pending
// to take or to wake it, and some enable is set (with none, the poll halts
// the hart as a lockup).
func (h *Hart) idlePoll() bool {
	if !h.Waiting || h.CSR.Mip(h.Time())&h.CSR.Mie != 0 {
		return false
	}
	if h.Cfg.HasH {
		return h.CSR.Hvip&h.CSR.Hie == 0 && (h.CSR.Mie != 0 || h.CSR.Hie != 0)
	}
	return h.CSR.Mie != 0
}

// wfiBatch advances a WFI-waiting hart by up to budget idle polls in one
// call, returning how many sequential steps it was equivalent to (0 = not
// applicable, the caller must take a normal step). It is the idle-tail
// counterpart of the superblock cycle-budget argument: an idle poll reads
// only state that is constant between timer-comparator crossings (devices
// change state on MMIO or mtime ticks, never spontaneously, and no other
// hart runs — the caller gates on a single-hart machine), so k identical
// polls can be charged at once provided every batched poll's latch point
// would still have seen the comparators in the future. sbSeqHeadroom gives
// exactly that horizon. Cycles, mtime advancement, and the wake step all
// land bit-identically with per-instruction stepping.
func (m *Machine) wfiBatch(h *Hart, budget uint64) uint64 {
	// A waking hart and a lockup halt are the normal step path's.
	if !h.idlePoll() {
		return 0
	}
	w := h.Cfg.Cost.WFIIdle
	if w == 0 {
		return 0
	}
	l := m.sbSeqHeadroom(h)
	if l == 0 {
		return 0 // a comparator crosses at this step's Advance: step normally
	}
	// Poll i (1-based) latches with consumed (i-1)*w, which must stay
	// strictly below the headroom, so at most ceil(l/w) polls batch.
	k := budget
	if l != ^uint64(0) && (l+w-1)/w < k {
		k = (l + w - 1) / w
	}
	if k > 1<<32 {
		k = 1 << 32 // bound the per-call leap; Run simply calls again
	}
	if k == 0 {
		return 0
	}
	h.Cycles += k * w
	return k
}

// sbSeqHeadroom returns how many cycles hart h may consume inside one
// sequential machine step before a timer comparator that is currently in
// the future would fire — i.e. before per-instruction stepping would have
// latched a newly pending timer interrupt between two instructions. Blocks
// must stop strictly below this limit. Timers are the only mip sources
// that can change mid-block: every other contributor needs an MMIO store,
// a CSR write, or a trap, all of which terminate a block (and external
// input from a harness arrives between Run calls, not mid-step).
func (m *Machine) sbSeqHeadroom(h *Hart) uint64 {
	cpt := m.Cfg.CyclesPerTick
	if cpt == 0 {
		return ^uint64(0) // frozen clock: no timer can ever fire
	}
	now := m.Clint.Time()
	limit := ^uint64(0)
	consider := func(t uint64) {
		if t <= now {
			// Already expired: pending (or masked) exactly as the
			// interpreter sees it; nothing new can fire mid-block.
			return
		}
		d := t - now
		if d > ^uint64(0)/cpt {
			return // unreachably far: d*cpt would overflow
		}
		// The interpreter latches before each instruction with
		// mtime = now + (timeRemainder+consumed)/cpt, so the comparator
		// stays in the future exactly while consumed < d*cpt - remainder.
		if l := d*cpt - m.timeRemainder; l < limit {
			limit = l
		}
	}
	consider(m.Clint.Mtimecmp(h.ID))
	if h.CSR.SstcEnabled() {
		consider(h.CSR.Stimecmp)
	}
	return limit
}

// Run advances the machine until it halts or maxSteps machine steps elapse.
// It returns the number of steps taken and whether the machine halted.
// Each iteration may retire a whole superblock or round, counted as the
// equivalent number of per-instruction steps.
func (m *Machine) Run(maxSteps uint64) (uint64, bool) {
	var steps uint64
	for steps < maxSteps && !m.halted {
		steps += m.stepSeq(maxSteps - steps)
	}
	return steps, m.halted
}

// RunUntil steps until cond returns true, the machine halts, or maxSteps
// elapse; it reports whether cond was met. cond is evaluated before every
// machine step.
func (m *Machine) RunUntil(cond func() bool, maxSteps uint64) bool {
	for steps := uint64(0); steps < maxSteps && !m.halted; steps++ {
		if cond() {
			return true
		}
		m.Step()
	}
	return cond()
}

// Cycles returns hart 0's cycle counter, the conventional clock for
// single-workload measurements. It deliberately reads only hart 0 — on a
// multi-hart machine, use HartCycles to name the hart you mean.
func (m *Machine) Cycles() uint64 { return m.HartCycles(0) }

// HartCycles returns hart i's cycle counter.
func (m *Machine) HartCycles(i int) uint64 { return m.Harts[i].Cycles }

// DMARegionSize is the size of the DMA engine's register window.
const DMARegionSize = 0x1000

// DMAEngine is a deliberately simple DMA-capable device: software programs
// source, destination, and length, then writes the control register to
// trigger a copy performed directly on the physical bus — bypassing PMP,
// exactly the threat the paper's sandbox policy closes by revoking firmware
// access to DMA-capable MMIO regions (§4.3, §7).
type DMAEngine struct {
	bus  *mem.Bus
	src  uint64
	dst  uint64
	len  uint64
	stat uint64 // 0 = idle/ok, 1 = error, 2 = IOPMP denial

	// Check, when non-nil, is the IOPMP hook consulted before every
	// master access.
	Check func(addr uint64, size int, write bool) bool
}

// DMA register offsets.
const (
	DMASrc  = 0x00
	DMADst  = 0x08
	DMALen  = 0x10
	DMACtl  = 0x18
	DMAStat = 0x20
)

// NewDMAEngine returns a DMA engine operating on bus.
func NewDMAEngine(bus *mem.Bus) *DMAEngine { return &DMAEngine{bus: bus} }

// Reset returns the engine to power-on register values.
func (d *DMAEngine) Reset() {
	d.src, d.dst, d.len, d.stat = 0, 0, 0, 0
}

// Name implements mem.Device.
func (d *DMAEngine) Name() string { return "dma" }

// Load implements mem.Device.
func (d *DMAEngine) Load(off uint64, size int) (uint64, bool) {
	if size != 8 {
		return 0, false
	}
	switch off {
	case DMASrc:
		return d.src, true
	case DMADst:
		return d.dst, true
	case DMALen:
		return d.len, true
	case DMAStat:
		return d.stat, true
	}
	return 0, false
}

// Store implements mem.Device. Writing any value to DMACtl triggers the
// copy.
func (d *DMAEngine) Store(off uint64, size int, v uint64) bool {
	if size != 8 {
		return false
	}
	switch off {
	case DMASrc:
		d.src = v
	case DMADst:
		d.dst = v
	case DMALen:
		d.len = v
	case DMACtl:
		d.stat = 0
		if d.Check != nil &&
			(!d.Check(d.src, int(d.len), false) || !d.Check(d.dst, int(d.len), true)) {
			d.stat = 2 // blocked by the IOPMP
			return true
		}
		data, err := d.bus.ReadBytes(d.src, int(d.len))
		if err != nil {
			d.stat = 1
			return true
		}
		if err := d.bus.WriteBytes(d.dst, data); err != nil {
			d.stat = 1
		}
	default:
		return false
	}
	return true
}
