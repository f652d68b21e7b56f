package fuzz

import (
	"fmt"
	"math/rand"

	"govfm/internal/hart"
	"govfm/internal/refmodel"
)

// Fuzzer drives coverage-guided differential fuzzing across one or more
// platform profiles, round-robin. Coverage keys come from monitor events
// (emulated instruction encodings, virtual trap causes, world switches)
// and native trap causes; a case contributing a new key joins the corpus.
//
// Every case also runs on a twin of its engine with the host caches off
// (runPair): the caches must never change an architectural result or a
// simulated cycle, so the twin has to agree with the engine on the end
// state of both machines.
type Fuzzer struct {
	Engines []*Engine
	twins   []*Engine // twins[i] is Engines[i] with the host caches off
	rng     *rand.Rand
	Seed    int64

	coverage map[uint64]struct{}
	corpus   [][]*TestCase // per engine

	// Stats.
	Cases      int
	GuestCases int // cases whose starting state had V=1
	Steps      int
	Findings   []*Finding
}

// corpusCap bounds the per-profile corpus; beyond it new entries replace
// random old ones.
const corpusCap = 256

// NewFuzzer builds an engine and its twin for each of the given profile
// names.
func NewFuzzer(profiles []string, seed int64) (*Fuzzer, error) {
	f := &Fuzzer{
		Seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		coverage: map[uint64]struct{}{},
	}
	for _, p := range profiles {
		e, twin, err := newPair(p)
		if err != nil {
			return nil, err
		}
		f.Engines = append(f.Engines, e)
		f.twins = append(f.twins, twin)
		f.corpus = append(f.corpus, nil)
	}
	if len(f.Engines) == 0 {
		return nil, fmt.Errorf("fuzz: no profiles")
	}
	return f, nil
}

// nextCase picks a fresh or mutated case for engine i.
func (f *Fuzzer) nextCase(i int) *TestCase {
	e := f.Engines[i]
	c := f.corpus[i]
	if len(c) == 0 || f.rng.Intn(3) == 0 {
		return e.GenCase(f.rng)
	}
	parent := c[f.rng.Intn(len(c))]
	var other *TestCase
	if len(c) > 1 {
		other = c[f.rng.Intn(len(c))]
	}
	return e.Mutate(f.rng, parent, other)
}

// runOne executes a case on engine i and its twin, recording the engine's
// coverage and corpus growth. It returns the finding, if any (not yet
// minimized).
func (f *Fuzzer) runOne(i int, tc *TestCase) *Finding {
	e := f.Engines[i]
	newKeys := 0
	e.Cov = func(key uint64) {
		if _, ok := f.coverage[key]; !ok {
			f.coverage[key] = struct{}{}
			newKeys++
		}
	}
	finding, steps := runPair(e, f.twins[i], tc)
	e.Cov = nil
	f.Cases++
	if tc.State != nil && tc.State.V {
		f.GuestCases++
	}
	f.Steps += steps
	if finding != nil {
		f.Findings = append(f.Findings, finding)
		return finding
	}
	if newKeys > 0 {
		if len(f.corpus[i]) < corpusCap {
			f.corpus[i] = append(f.corpus[i], tc)
		} else {
			f.corpus[i][f.rng.Intn(corpusCap)] = tc
		}
	}
	return nil
}

// RunBudget fuzzes until the total lockstep step count reaches budget,
// alternating engines. Findings are minimized before being returned; the
// fuzzer keeps going after a finding (up to maxFindings) so one bug does
// not mask others.
func (f *Fuzzer) RunBudget(budget int, maxFindings int) []*Finding {
	return f.runUntil(func() bool { return f.Steps >= budget }, maxFindings)
}

// RunCases fuzzes until the total case count reaches n, alternating
// engines; otherwise identical to RunBudget. Case-denominated gates (the
// -hext CI gate promises a minimum case count) use this instead of a step
// budget.
func (f *Fuzzer) RunCases(n int, maxFindings int) []*Finding {
	return f.runUntil(func() bool { return f.Cases >= n }, maxFindings)
}

func (f *Fuzzer) runUntil(done func() bool, maxFindings int) []*Finding {
	var minimized []*Finding
	for i := 0; !done(); i = (i + 1) % len(f.Engines) {
		tc := f.nextCase(i)
		if fd := f.runOne(i, tc); fd != nil {
			minimized = append(minimized, Minimize(f.Engines[i], f.twins[i], fd))
			if maxFindings > 0 && len(minimized) >= maxFindings {
				break
			}
		}
	}
	return minimized
}

// Coverage returns the number of distinct coverage keys observed.
func (f *Fuzzer) Coverage() int { return len(f.coverage) }

// CorpusSize returns the corpus size for engine i.
func (f *Fuzzer) CorpusSize(i int) int { return len(f.corpus[i]) }

// WhereFastInterp labels a case on which an engine and its twin both
// agreed with the reference model but not with each other.
const WhereFastInterp = "fast-vs-interp"

// newPair builds a profile's engine and its twin, whose machines run with
// the host caches off.
func newPair(profile string) (e, twin *Engine, err error) {
	if e, err = NewEngine(profile); err != nil {
		return nil, nil, err
	}
	if twin, err = NewEngine(profile); err != nil {
		return nil, nil, err
	}
	twin.Native.SetFastPath(false)
	twin.Virt.SetFastPath(false)
	return e, twin, nil
}

// runPair runs tc on e and then on its twin, and returns the first
// finding plus e's lockstep step count. A finding of e's is returned as
// is; one of the twin's alone carries the prefix "interp:", since e then
// disagreed with the twin too. With no finding on either side, the step
// counts and end states must match (diffTwin).
func runPair(e, twin *Engine, tc *TestCase) (*Finding, int) {
	f, steps := e.Run(tc)
	if f != nil {
		return f, steps
	}
	ft, stepsT := twin.Run(tc)
	if ft != nil {
		ft.Where = "interp:" + ft.Where
		return ft, steps
	}
	if steps != stepsT {
		return &Finding{Case: tc, Step: steps, Where: WhereFastInterp,
			Deltas: []refmodel.Delta{{Field: "lockstep steps", A: uint64(steps), B: uint64(stepsT)}}}, steps
	}
	if ds := diffTwin(e, twin); ds != nil {
		return &Finding{Case: tc, Step: steps, Where: WhereFastInterp, Deltas: ds}, steps
	}
	return nil, steps
}

// diffTwin compares the end states of an engine and its twin after both
// ran the same case: each pair of machines through diffMachines, over the
// program and scratch windows, then the monitor's virtual CSR file, which
// no machine field holds.
func diffTwin(e, twin *Engine) []refmodel.Delta {
	for _, side := range []struct {
		name      string
		fast, ref *hart.Machine
	}{{"native", e.Native, twin.Native}, {"virt", e.Virt, twin.Virt}} {
		if d := diffMachines(side.name, side.ref, side.fast); d != "" {
			return []refmodel.Delta{{Field: d}}
		}
	}
	ds := refmodel.Diff(e.VirtCfg, twin.virtView(), e.virtView())
	for i := range ds {
		ds[i].Field = "virt-csr " + ds[i].Field
	}
	return ds
}
