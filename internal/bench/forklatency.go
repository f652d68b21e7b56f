package bench

import (
	"fmt"
	"time"

	"govfm/internal/core"
	"govfm/internal/hart"
)

// Fork latency: the cost of producing one more runnable machine, the
// copy-on-write way versus the cold-boot way. A campaign case needs a
// monitored machine advanced to a known mid-boot point; cold-boot pays
// firmware/kernel build + machine construction + warmup simulation per
// case, while fork pays one snapshot up front and a page-table copy plus
// monitor fork per case. The mini-campaign rows measure end-to-end
// cases/sec for both strategies — each case still simulates the tail of
// the boot to completion, so the speedup is bounded by how much of the
// per-case work the shared snapshot absorbs.

// ForkLatencyResult is the fork-vs-cold-boot comparison on one platform.
type ForkLatencyResult struct {
	Platform    string
	Cases       int
	WarmupSteps uint64 // steps absorbed by the shared snapshot
	CaseSteps   uint64 // steps each case still simulates
	ImagePages  int    // 4 KiB pages in the shared image

	SpawnNsPerCase int64 // fork only: spawn+monitor-fork
	ForkNsPerCase  int64 // fork: spawn + run tail
	ColdNsPerCase  int64 // cold: build + warmup + run tail

	ForkCasesPerSec float64
	ColdCasesPerSec float64
	Speedup         float64 // cold ns / fork ns per case
}

// forkCampaignWorkload is the per-case guest: a CoreMark-Pro-class
// compute kernel sized so one case simulates a few hundred thousand
// steps — the scale at which a campaign actually amortizes its boots.
func forkCampaignWorkload() *WorkloadSpec {
	return &WorkloadSpec{
		Name:          "fork-campaign",
		Iterations:    100,
		ComputeN:      1800,
		MemN:          10,
		WorkingSet:    4 << 10,
		TimeReadEvery: 9,
		TimerSetEvery: 97,
	}
}

// forkBenchSystem builds the canonical monitored campaign case: gosbi
// firmware plus the compute workload kernel, offload on (the paper's
// default configuration), one hart.
func forkBenchSystem(mk func() *hart.Config) (*hart.Machine, *core.Monitor, error) {
	return bootGosbi(mk, forkCampaignWorkload().BuildKernel(core.OSBase), monitorOptions(Miralis))
}

// forkBootSteps probes how many steps the scenario takes to halt.
func forkBootSteps(mk func() *hart.Config) (uint64, error) {
	m, _, err := forkBenchSystem(mk)
	if err != nil {
		return 0, err
	}
	var total uint64
	for i := 0; i < 10_000; i++ {
		n, _ := m.Run(1_000)
		total += n
		if ok, reason := m.Halted(); ok {
			if reason != "guest-exit-pass" {
				return 0, fmt.Errorf("fork bench probe halted with %q", reason)
			}
			return total, nil
		}
	}
	return 0, fmt.Errorf("fork bench probe did not halt in %d steps", total)
}

// ForkLatency runs the comparison: a cases-sized mini-campaign where every
// case must finish the boot with guest-exit-pass, once with each case
// cold-booted from scratch and once with each case forked from a shared
// late-boot snapshot.
func ForkLatency(mk func() *hart.Config, cases int) (*ForkLatencyResult, error) {
	if cases < 1 {
		cases = 1
	}
	bootSteps, err := forkBootSteps(mk)
	if err != nil {
		return nil, err
	}
	// Snapshot late in the boot — the campaign model is "boot once to
	// steady state, then each case runs its own short tail", so the shared
	// image absorbs 15/16 of the per-case simulation.
	warmup := bootSteps - bootSteps/16
	if warmup == 0 {
		warmup = 1
	}
	caseSteps := bootSteps - warmup + 4_096 // margin: halt, don't race the budget

	// Fork strategy: one parent booted and snapshotted, then every case
	// spawns a COW child with a forked monitor and runs only the tail.
	parent, pmon, err := forkBenchSystem(mk)
	if err != nil {
		return nil, err
	}
	parent.Run(warmup)
	if ok, reason := parent.Halted(); ok {
		return nil, fmt.Errorf("fork bench parent halted during warmup: %q", reason)
	}
	img, err := parent.Snapshot()
	if err != nil {
		return nil, err
	}

	res := &ForkLatencyResult{
		Platform:    mk().Name,
		Cases:       cases,
		WarmupSteps: warmup,
		CaseSteps:   caseSteps,
		ImagePages:  img.Mem.Pages(),
	}

	var spawnNs int64
	forkStart := time.Now()
	for i := 0; i < cases; i++ {
		t0 := time.Now()
		child, err := hart.SpawnFromImage(img)
		if err != nil {
			return nil, err
		}
		if _, err := pmon.Fork(child); err != nil {
			return nil, err
		}
		spawnNs += time.Since(t0).Nanoseconds()
		if err := runToPass(child, caseSteps); err != nil {
			return nil, fmt.Errorf("fork case %d: %w", i, err)
		}
	}
	forkNs := time.Since(forkStart).Nanoseconds()

	coldStart := time.Now()
	for i := 0; i < cases; i++ {
		m, _, err := forkBenchSystem(mk)
		if err != nil {
			return nil, err
		}
		m.Run(warmup)
		if err := runToPass(m, caseSteps); err != nil {
			return nil, fmt.Errorf("cold case %d: %w", i, err)
		}
	}
	coldNs := time.Since(coldStart).Nanoseconds()

	res.SpawnNsPerCase = spawnNs / int64(cases)
	res.ForkNsPerCase = forkNs / int64(cases)
	res.ColdNsPerCase = coldNs / int64(cases)
	res.ForkCasesPerSec = float64(cases) / (float64(forkNs) / 1e9)
	res.ColdCasesPerSec = float64(cases) / (float64(coldNs) / 1e9)
	if forkNs > 0 {
		res.Speedup = float64(coldNs) / float64(forkNs)
	}
	return res, nil
}
