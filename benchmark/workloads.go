package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"govfm/internal/asm"
	"govfm/internal/bench"
	"govfm/internal/core"
	"govfm/internal/hart"
	"govfm/internal/kernel"
	"govfm/internal/mmu"
	"govfm/internal/rv"
)

// workload is one benchmark input: a machine shape and the guest software it
// boots, with its data drawn from the seed. Each workload leans on a different layer, so a
// change to one layer has a workload that exercises it and others that
// should not move.
type workload struct {
	name string
	why  string
	spec func(r *rand.Rand) *spec
}

// workloads is the benchmark's fixed set, in report order.
var workloads = []workload{
	{
		name: "trap-mix",
		why:  "p550 + sandbox: every OS trap class; the monitor's decode/emulate, fast path, world switch and policy hooks do most of the work",
		spec: trapMix,
	},
	{
		name: "paged-compute",
		why:  "Sv39 guest striding 256 pages past the 64-set TLB: guest execution, superblocks and page walks dominate; the monitor is idle",
		spec: pagedCompute,
	},
	{
		name: "vs-guests",
		why:  "two VS guests under an HS hypervisor: V=1 code under two-stage translation, which the superblock tier refuses",
		spec: vsGuests,
	},
	{
		name: "smp-mix",
		why:  "4 harts on the sequential scheduler: per-step interrupt latching, no superblocks, cross-hart IPIs through the virtual CLINT",
		spec: smpMix,
	},
	{
		name: "idle-tick",
		why:  "timer-tick boot tail: the WFI fast-forward does almost all the work, kept apart so idle skip cannot skew the rest",
		spec: idleTick,
	},
	{
		name: "fork-campaign",
		why:  "fork a booted snapshot and run its tail: copy-on-write page breaks and monitor fork, the chaos campaigns' per-case cost",
		spec: forkCampaign,
	},
}

// spec is a workload's seeded inputs: everything one run needs to build its
// system from nothing.
type spec struct {
	profile func() *hart.Config
	harts   int
	sandbox bool
	kernel  func() []byte
	// fork marks a campaign workload: the system boots once and is
	// snapshotted at 15/16 of its steps; each run forks the snapshot and
	// runs the tail.
	fork bool
}

// newRand derives one workload's input stream from the benchmark seed. The
// seed picks the data constants and working-set offsets of the benchmark's
// own kernels. Sizes never vary with it, so neither do run time and
// allocation; the kernels that bench and kernel build take no data inputs,
// so those workloads are the same for every seed.
func newRand(seed int64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

func trapMix(*rand.Rand) *spec {
	w := &bench.WorkloadSpec{
		Name: "trap-mix", Iterations: 3000, ComputeN: 60, MemN: 16, WorkingSet: 64 << 10,
		TimeReadEvery: 1, TimerSetEvery: 7, MisalignedEvery: 5, IPIEvery: 11, RfenceEvery: 13, ConsoleEvery: 17,
	}
	return &spec{profile: hart.PremierP550, harts: 1, sandbox: true,
		kernel: func() []byte { return w.BuildKernel(core.OSBase) }}
}

func pagedCompute(r *rand.Rand) *spec {
	k, off := r.Uint64()|1, uint64(r.Intn(64))<<12
	return &spec{profile: hart.VisionFive2, harts: 1,
		kernel: func() []byte { return pagedKernel(k, off) }}
}

func vsGuests(*rand.Rand) *spec {
	return &spec{profile: hart.PremierP550, harts: 1,
		kernel: func() []byte { return kernel.BuildHypervisor(core.OSBase, kernel.HypOptions{Yields: 800}) }}
}

func smpMix(r *rand.Rand) *spec {
	k, off := r.Uint64()|1, uint64(r.Intn(16))<<12
	return &spec{profile: hart.VisionFive2, harts: smpHarts,
		kernel: func() []byte { return smpKernel(k, off) }}
}

func idleTick(*rand.Rand) *spec {
	return &spec{profile: hart.VisionFive2, harts: 1,
		kernel: func() []byte { return kernel.BuildBootTrace(core.OSBase, 200) }}
}

// forkCampaign boots the guest bench.ForkLatency forks: gosbi plus the same
// compute kernel.
func forkCampaign(*rand.Rand) *spec {
	w := &bench.WorkloadSpec{
		Name: "fork-campaign", Iterations: 100, ComputeN: 1800, MemN: 10, WorkingSet: 4 << 10,
		TimeReadEvery: 9, TimerSetEvery: 97,
	}
	return &spec{profile: hart.VisionFive2, harts: 1, fork: true,
		kernel: func() []byte { return w.BuildKernel(core.OSBase) }}
}

// sbi emits an SBI call with the extension and function in a7/a6.
func sbi(a *asm.Asm, ext, fn uint64) {
	a.Li(asm.A7, ext)
	a.Li(asm.A6, fn)
	a.Ecall()
}

// emitHex prints reg as 16 hex digits and a newline on the SBI debug
// console, so the console output every run is checked against carries the
// guest's data and not only its control flow. It clobbers s8, s9, t0 and the
// argument registers.
func emitHex(a *asm.Asm, reg int) {
	a.Mv(asm.S8, reg)
	a.Li(asm.S9, 16)
	a.Label("hex")
	a.Srli(asm.A0, asm.S8, 60)
	a.Slli(asm.S8, asm.S8, 4)
	a.Li(asm.T0, 10)
	a.Bltu(asm.A0, asm.T0, "hex_digit")
	a.Addi(asm.A0, asm.A0, 'a'-'0'-10)
	a.Label("hex_digit")
	a.Addi(asm.A0, asm.A0, '0')
	sbi(a, rv.SBIExtDebug, rv.SBIDebugWriteByte)
	a.Addi(asm.S9, asm.S9, -1)
	a.Bnez(asm.S9, "hex")
	a.Li(asm.A0, '\n')
	sbi(a, rv.SBIExtDebug, rv.SBIDebugWriteByte)
}

// emitShutdown ends the kernel: SBI system reset on success, and a "fail"
// label that stores the exit device's failure code. The failure path turns
// translation off first, since the exit device lies outside the DRAM
// gigapage a paged kernel maps.
func emitShutdown(a *asm.Asm) {
	a.Li(asm.A0, 0)
	a.Li(asm.A1, 0)
	sbi(a, rv.SBIExtReset, 0)
	a.Label("fail")
	a.Csrw(rv.CSRSatp, asm.X0)
	a.SfenceVMA(asm.X0, asm.X0)
	a.Li(asm.T6, hart.ExitBase)
	a.Li(asm.T5, hart.ExitFail)
	a.Sd(asm.T5, asm.T6, 0)
	a.Label("hang")
	a.J("hang")
}

// Paged-compute layout inside the OS region.
const (
	pagedTable  = core.OSBase + 0x10_0000 // Sv39 root table, zeroed RAM
	pagedWindow = core.OSBase + 0x20_0000 // working set, plus a seeded offset
	pagedSpan   = 1 << 20
	// pagedStride is a page plus a cache line, so consecutive accesses land
	// on consecutive pages and the 1 MiB span covers 252 of them: more than
	// the simulator's 64-set TLB holds.
	pagedStride = 4160
)

// pagedKernel maps the DRAM gigapage with one Sv39 PTE, then runs 120
// iterations of a 1500-step ALU chain and 400 loads and stores striding over
// the working set, reads the time CSR (a trap on a platform without one),
// and prints a checksum of the data it touched.
func pagedKernel(k, winOff uint64) []byte {
	a := asm.New(core.OSBase)
	a.La(asm.T0, "fail")
	a.Csrw(rv.CSRStvec, asm.T0)
	giga := uint64(hart.DramBase)
	a.Li(asm.T0, pagedTable+(giga>>30&0x1FF)*8)
	a.Li(asm.T1, giga>>2|mmu.PteD|mmu.PteA|mmu.PteX|mmu.PteW|mmu.PteR|mmu.PteV)
	a.Sd(asm.T1, asm.T0, 0)
	a.Li(asm.T0, rv.SatpModeSv39<<60|pagedTable>>12)
	a.Csrw(rv.CSRSatp, asm.T0)
	a.SfenceVMA(asm.X0, asm.X0)

	a.Li(asm.S0, 120)
	a.Li(asm.S2, pagedWindow+winOff)
	a.Li(asm.S4, 0) // window cursor, carried across iterations
	a.Li(asm.S5, pagedStride)
	a.Li(asm.S6, pagedSpan)
	a.Li(asm.S7, 0) // checksum
	a.Li(asm.T1, k)
	a.Label("outer")
	a.Li(asm.T0, 1500)
	a.Label("alu")
	a.Add(asm.T2, asm.T2, asm.T1)
	a.Xor(asm.T1, asm.T1, asm.T2)
	a.Slli(asm.T3, asm.T2, 1)
	a.Add(asm.T2, asm.T2, asm.T3)
	a.Addi(asm.T0, asm.T0, -1)
	a.Bnez(asm.T0, "alu")
	a.Li(asm.T0, 400)
	a.Label("mem")
	a.Add(asm.T3, asm.S2, asm.S4)
	a.Ld(asm.T4, asm.T3, 0)
	a.Add(asm.T4, asm.T4, asm.T2)
	a.Sd(asm.T4, asm.T3, 0)
	a.Add(asm.S4, asm.S4, asm.S5)
	a.Bltu(asm.S4, asm.S6, "mem_next")
	a.Sub(asm.S4, asm.S4, asm.S6)
	a.Label("mem_next")
	a.Addi(asm.T0, asm.T0, -1)
	a.Bnez(asm.T0, "mem")
	a.Xor(asm.S7, asm.S7, asm.T4)
	a.Csrr(asm.T5, rv.CSRTime)
	a.Addi(asm.S0, asm.S0, -1)
	a.BnezFar(asm.S0, "outer")
	emitHex(a, asm.S7)
	emitShutdown(a)
	return a.MustAssemble()
}

// SMP-mix layout: each hart owns a 64 KiB window, 128 KiB apart.
const (
	smpHarts   = 4 // a power of two: the next hart is (id+1) & (smpHarts-1)
	smpWindows = core.OSBase + 0x40_0000
	smpSteps   = 200
	smpStride  = 320 // 200 stores cover 62.5 KiB of the window
)

// smpKernel starts harts 1..smpHarts-1 through SBI HSM. Every hart then runs
// 400 iterations of a 200-step ALU+store loop over its own window, a time
// CSR read, and on every 8th iteration an SBI IPI to the next hart. Each hart
// publishes a checksum and a done flag; hart 0 waits for all of them, prints
// the folded checksum and shuts down. The supervisor handler takes only the
// IPIs and touches nothing but t5/t6, which the loop leaves alone.
func smpKernel(k, winOff uint64) []byte {
	a := asm.New(core.OSBase)
	setupTraps := func() {
		a.La(asm.T0, "strap")
		a.Csrw(rv.CSRStvec, asm.T0)
		a.Li(asm.T0, 1<<rv.IntSSoft)
		a.Csrrs(asm.X0, rv.CSRSie, asm.T0)
		a.Csrrsi(asm.X0, rv.CSRSstatus, 1<<rv.MstatusSIE)
	}
	slot := func(base string) { // t0 = &base[hartid]
		a.La(asm.T0, base)
		a.Slli(asm.T1, asm.S11, 3)
		a.Add(asm.T0, asm.T0, asm.T1)
	}

	a.Mv(asm.S11, asm.A0)
	setupTraps()
	for i := 1; i < smpHarts; i++ {
		a.Li(asm.A0, uint64(i))
		a.La(asm.A1, "secondary")
		a.Li(asm.A2, 0)
		sbi(a, rv.SBIExtHSM, rv.SBIHSMHartStart)
		a.BnezFar(asm.A0, "fail")
	}
	for i := 1; i < smpHarts; i++ {
		wait := fmt.Sprintf("checkin_wait_%d", i)
		a.La(asm.T0, "checkin")
		a.Label(wait)
		a.Ld(asm.T1, asm.T0, int64(8*i))
		a.Beqz(asm.T1, wait)
	}
	a.J("work")

	a.Label("secondary")
	a.Mv(asm.S11, asm.A0)
	setupTraps()
	slot("checkin")
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.T0, 0)

	a.Label("work")
	a.Li(asm.S2, smpWindows+winOff)
	a.Slli(asm.T0, asm.S11, 17)
	a.Add(asm.S2, asm.S2, asm.T0)
	a.Addi(asm.T0, asm.S11, 1)
	a.Andi(asm.T0, asm.T0, smpHarts-1)
	a.Li(asm.T1, 1)
	a.Sll(asm.S3, asm.T1, asm.T0) // IPI hart mask of the next hart
	a.Li(asm.S0, 400)
	a.Li(asm.S1, 0)
	a.Li(asm.T1, k)
	a.Add(asm.T1, asm.T1, asm.S11)
	a.Li(asm.T2, 0)
	a.Label("outer")
	a.Li(asm.T0, smpSteps)
	a.Mv(asm.T3, asm.S2)
	a.Label("inner")
	a.Add(asm.T2, asm.T2, asm.T1)
	a.Xor(asm.T1, asm.T1, asm.T2)
	a.Sd(asm.T2, asm.T3, 0)
	a.Addi(asm.T3, asm.T3, smpStride)
	a.Addi(asm.T0, asm.T0, -1)
	a.Bnez(asm.T0, "inner")
	a.Csrr(asm.T4, rv.CSRTime)
	a.Andi(asm.T0, asm.S1, 7)
	a.Bnez(asm.T0, "no_ipi")
	a.Mv(asm.A0, asm.S3)
	a.Li(asm.A1, 0)
	sbi(a, rv.SBIExtIPI, rv.SBIIPISendIPI)
	a.BnezFar(asm.A0, "fail")
	a.Label("no_ipi")
	a.Addi(asm.S1, asm.S1, 1)
	a.Addi(asm.S0, asm.S0, -1)
	a.BnezFar(asm.S0, "outer")
	slot("result")
	a.Sd(asm.T2, asm.T0, 0)
	slot("done")
	a.Li(asm.T1, 1)
	a.Sd(asm.T1, asm.T0, 0)
	a.BnezFar(asm.S11, "idle")

	a.Li(asm.S7, 0)
	for i := 0; i < smpHarts; i++ {
		wait := fmt.Sprintf("done_wait_%d", i)
		a.La(asm.T0, "done")
		a.Label(wait)
		a.Ld(asm.T1, asm.T0, int64(8*i))
		a.Beqz(asm.T1, wait)
		a.La(asm.T0, "result")
		a.Ld(asm.T1, asm.T0, int64(8*i))
		a.Xor(asm.S7, asm.S7, asm.T1)
	}
	emitHex(a, asm.S7)
	emitShutdown(a)

	a.Label("idle")
	a.Wfi()
	a.J("idle")

	a.Label("strap")
	a.Csrr(asm.T6, rv.CSRScause)
	a.Slli(asm.T6, asm.T6, 1)
	a.Srli(asm.T6, asm.T6, 1)
	a.Li(asm.T5, rv.IntSSoft)
	a.Bne(asm.T6, asm.T5, "fail")
	a.Li(asm.T5, 1<<rv.IntSSoft)
	a.Csrrc(asm.X0, rv.CSRSip, asm.T5)
	a.Sret()

	a.Align(8)
	for _, l := range []string{"checkin", "done", "result"} {
		a.Label(l)
		a.Space(8 * smpHarts)
	}
	return a.MustAssemble()
}
