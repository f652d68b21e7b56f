package hart

import (
	"fmt"

	"govfm/internal/obs"
	"govfm/internal/rv"
)

// PerfCounters holds the hart's always-on performance counters: plain
// (non-atomic) uint64s living next to the state they count, so the hot
// paths pay one increment and nothing else. A hart is stepped by a single
// goroutine and snapshots read the counters between steps, so no atomics
// are needed. None of these feed back into simulated state — cycle counts
// are bit-identical whether anyone ever reads them (the obs-overhead gate
// in scripts/verify.sh checks exactly that).
type PerfCounters struct {
	// Software-TLB outcomes in translate (fast path on; misses walk).
	TLBHits   uint64
	TLBMisses uint64
	// Predecode-cache outcomes in fetchFast (MMIO fetches count as misses).
	DecodeHits   uint64
	DecodeMisses uint64
	// Page-table walks performed by translate (TLB misses plus every
	// translation with the fast path off).
	PageWalks uint64
	// Traps taken, total and by cause (see trapCauseIndex).
	Traps        uint64
	TrapsByCause [64]uint64
	// Superblock tier outcomes (superblock.go): translations built, block
	// dispatches that retired at least one instruction, block-to-block
	// transfers within one dispatch or round, instructions retired inside
	// blocks, entry-guard misses, in-block op aborts that fell back to the
	// interpreter, and multi-hart sequential rounds (Machine.seqRound) the
	// hart ran block ops in past their first step.
	SBTranslations uint64
	SBHits         uint64
	SBChains       uint64
	SBRetired      uint64
	SBGuardMisses  uint64
	SBAborts       uint64
	SBRounds       uint64
	// Outcomes of writes into pages this hart caches decodes for
	// (InvalidatePhysPage): writes that dropped a live decode or
	// superblock (self-modifying or reloaded code), and writes that
	// touched no live slot (data sharing a page with code). In a parallel
	// slice a hart's own store is seen at the store and again, as a data
	// write, when the barrier commits it.
	CodeWriteInvalidations uint64
	CodePageDataWrites     uint64
}

// trapCauseIndex maps an mcause value into TrapsByCause: exception codes
// occupy 0..31, interrupt codes 32..63.
func trapCauseIndex(cause uint64) int {
	i := int(rv.CauseCode(cause) & 31)
	if rv.CauseIsInterrupt(cause) {
		i += 32
	}
	return i
}

// trapCauseFromIndex inverts trapCauseIndex.
func trapCauseFromIndex(i int) uint64 {
	return rv.Cause(uint64(i&31), i >= 32)
}

// trapNames precomputes "trap:<cause>" event names so the per-trap trace
// path allocates nothing. Read-only after init, so concurrent harts may
// share it.
var trapNames = func() [64]string {
	var names [64]string
	for i := range names {
		names[i] = "trap:" + rv.CauseString(trapCauseFromIndex(i))
	}
	return names
}()

// AttachObs wires an observer into the machine: every hart's trap stream
// feeds the tracer, and the registry learns collectors that surface the
// harts' PerfCounters and the devices' counters at snapshot time. Call it
// once, before running; snapshots must be taken between machine steps
// (the counters are deliberately not atomic).
func (m *Machine) AttachObs(o *obs.Observer) {
	if o == nil {
		return
	}
	for _, h := range m.Harts {
		h.Trace = o.Trace
	}
	m.trace = o.Trace // scheduler barrier instants (SchedPar)
	r := o.Metrics
	if r == nil {
		return
	}
	r.Collect(func(emit func(name string, value uint64)) {
		var tlbH, tlbM, decH, decM, walks, traps, instret, cycles uint64
		var sbT, sbH, sbC, sbR, sbG, sbA, sbRnd, smcI, smcD uint64
		for _, h := range m.Harts {
			p := &h.Perf
			pfx := fmt.Sprintf("hart%d.", h.ID)
			emit(pfx+"cycles", h.Cycles)
			emit(pfx+"instret", h.Instret)
			emit(pfx+"sinstret", h.SInstret)
			emit(pfx+"tlb.hits", p.TLBHits)
			emit(pfx+"tlb.misses", p.TLBMisses)
			emit(pfx+"decode.hits", p.DecodeHits)
			emit(pfx+"decode.misses", p.DecodeMisses)
			emit(pfx+"pagewalks", p.PageWalks)
			emit(pfx+"traps", p.Traps)
			for i, n := range p.TrapsByCause {
				if n != 0 {
					emit(pfx+trapNames[i], n)
				}
			}
			emit(pfx+"pmp.checks", h.CSR.PMP.Perf.Checks)
			emit(pfx+"pmp.fast_hits", h.CSR.PMP.Perf.FastHits)
			emit(pfx+"sb.translations", p.SBTranslations)
			emit(pfx+"sb.hits", p.SBHits)
			emit(pfx+"sb.chains", p.SBChains)
			emit(pfx+"sb.retired", p.SBRetired)
			emit(pfx+"sb.guard_misses", p.SBGuardMisses)
			emit(pfx+"sb.aborts", p.SBAborts)
			emit(pfx+"sb.rounds", p.SBRounds)
			emit(pfx+"smc.code_invalidations", p.CodeWriteInvalidations)
			emit(pfx+"smc.data_writes", p.CodePageDataWrites)
			tlbH += p.TLBHits
			tlbM += p.TLBMisses
			decH += p.DecodeHits
			decM += p.DecodeMisses
			walks += p.PageWalks
			traps += p.Traps
			instret += h.Instret
			cycles += h.Cycles
			sbT += p.SBTranslations
			sbH += p.SBHits
			sbC += p.SBChains
			sbR += p.SBRetired
			sbG += p.SBGuardMisses
			sbA += p.SBAborts
			sbRnd += p.SBRounds
			smcI += p.CodeWriteInvalidations
			smcD += p.CodePageDataWrites
		}
		emit("sim.cycles", cycles)
		emit("sim.instret", instret)
		emit("sim.traps", traps)
		emit("sim.pagewalks", walks)
		emit("sim.tlb.hits", tlbH)
		emit("sim.tlb.misses", tlbM)
		emit("sim.tlb.hit_pct", obs.HitRatePct(tlbH, tlbM))
		emit("sim.decode.hits", decH)
		emit("sim.decode.misses", decM)
		emit("sim.decode.hit_pct", obs.HitRatePct(decH, decM))
		emit("sim.sb.translations", sbT)
		emit("sim.sb.hits", sbH)
		emit("sim.sb.chains", sbC)
		emit("sim.sb.retired", sbR)
		emit("sim.sb.guard_misses", sbG)
		emit("sim.sb.aborts", sbA)
		emit("sim.sb.rounds", sbRnd)
		emit("sim.smc.code_invalidations", smcI)
		emit("sim.smc.data_writes", smcD)
		// Share of all retired instructions that ran inside superblocks.
		// (Perf counters survive Machine.Reset while instret does not, so
		// guard the subtraction across reboots.)
		if instret >= sbR {
			emit("sim.sb.retired_pct", obs.HitRatePct(sbR, instret-sbR))
		}

		emit("dev.clint.timer_programs", m.Clint.Perf.TimerPrograms)
		emit("dev.clint.ipi_posts", m.Clint.Perf.IPIPosts)
		emit("dev.plic.claims", m.Plic.Perf.Claims)
		emit("dev.plic.completes", m.Plic.Perf.Completes)
		emit("dev.uart.tx_bytes", uint64(m.Uart.TxLen()))
		if m.IOPMP != nil {
			emit("dev.iopmp.checks", m.IOPMP.Checks)
			emit("dev.iopmp.denials", m.IOPMP.Denials)
		}
	})
}
