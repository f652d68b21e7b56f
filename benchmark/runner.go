package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// oracleStepCap bounds the interpreter reference run of a workload.
const oracleStepCap = 2_000_000_000

// prepared is a workload with its seeded inputs and its interpreter oracle.
type prepared struct {
	workload
	spec    *spec
	oracle  outcome
	instret uint64 // instructions one run retires, over all harts
	steps   uint64 // step budget of a run: twice what the oracle took
	warmup  uint64 // fork workloads: steps the snapshot absorbs
}

// prepare seeds the workload and runs its reference: the interpreter with
// every host cache and the superblock tier off. Every timed run must then
// reproduce the reference's outcome exactly.
func prepare(w workload, seed int64) (*prepared, error) {
	p := &prepared{workload: w, spec: w.spec(newRand(seed, w.name))}
	sys, err := p.spec.boot(reference, nil)
	if err != nil {
		return nil, err
	}
	steps, _ := sys.m.Run(oracleStepCap)
	if err := passed(sys); err != nil {
		return nil, fmt.Errorf("%s reference run: %w", w.name, err)
	}
	if p.spec.fork {
		// Snapshot late, so the shared image absorbs 15/16 of the boot and
		// each case runs the tail, as bench.ForkLatency does.
		p.warmup = steps - steps/16
		base, err := p.spec.prepareFork(reference, nil, p.warmup)
		if err != nil {
			return nil, fmt.Errorf("%s reference parent: %w", w.name, err)
		}
		if sys, err = base.spawn(reference, nil); err != nil {
			return nil, err
		}
		before := readCounters(sys.m)
		steps, _ = sys.m.Run(oracleStepCap)
		if err := passed(sys); err != nil {
			return nil, fmt.Errorf("%s reference fork: %w", w.name, err)
		}
		p.instret = readCounters(sys.m).since(before)[cInstret]
	} else {
		p.instret = readCounters(sys.m)[cInstret]
	}
	p.oracle = observe(sys)
	p.steps = 2 * steps
	return p, nil
}

// passed reports an error unless the system halted with guest-exit-pass.
func passed(s *system) error {
	if halted, reason := s.m.Halted(); !halted || reason != "guest-exit-pass" {
		return fmt.Errorf("halted=%v reason=%q", halted, reason)
	}
	return nil
}

// lane is one workload run in one variant, with every sample it took.
type lane struct {
	w    *prepared
	v    variant
	lt   *layerTrace // traced lanes only
	fork *forkBase   // fork workloads only: this lane's own parent

	setupNs, runNs    []int64 // successful measured runs
	attempted, failed int
	failure           string // the first failure

	// Go runtime deltas over the measured slices, and the runs they cover.
	sliceRuns       int
	allocBytes, gcs uint64
	gcPauseNs       uint64
}

func newLane(w *prepared, v variant) (*lane, error) {
	l := &lane{w: w, v: v}
	if v == traced {
		l.lt = &layerTrace{}
	}
	if w.spec.fork {
		var err error
		if l.fork, err = w.spec.prepareFork(v, l.lt, w.warmup); err != nil {
			return nil, fmt.Errorf("%s %v parent: %w", w.name, v, err)
		}
	}
	return l, nil
}

func (l *lane) setup() (*system, error) {
	if l.fork != nil {
		return l.fork.spawn(l.v, l.lt)
	}
	return l.w.spec.boot(l.v, l.lt)
}

// once makes one cold run: set up, run to the guest's exit, and check the
// outcome against the oracle. A measured run that matches adds its timings.
// It returns the finished system, or nil if the run failed.
func (l *lane) once(measured bool) *system {
	l.attempted++
	lt := l.lt
	t0 := time.Now()
	root := lt.open("run", t0)
	setupSpan := lt.open("setup", t0)
	sys, err := l.setup()
	t1 := time.Now()
	lt.close(setupSpan, t1)
	if err != nil {
		l.fail(err.Error())
		return nil
	}
	var before counters
	if lt != nil {
		before = readCounters(sys.m)
	}
	runSpan := lt.open("hart.run", t1)
	sys.m.Run(l.w.steps)
	t2 := time.Now()
	lt.close(runSpan, t2)
	lt.close(root, t2)
	if lt != nil {
		lt.endRun(t2.Sub(t1).Nanoseconds(), readCounters(sys.m).since(before))
	}
	got := observe(sys)
	if msg := got.mismatch(&l.w.oracle); msg != "" {
		l.fail(msg)
		return nil
	}
	if measured {
		l.setupNs = append(l.setupNs, t1.Sub(t0).Nanoseconds())
		l.runNs = append(l.runNs, t2.Sub(t1).Nanoseconds())
	}
	return sys
}

func (l *lane) fail(msg string) {
	if l.lt != nil {
		l.lt.endSpans()
	}
	l.failed++
	if l.failure == "" {
		l.failure = msg
	}
}

// Measurement schedule.
const (
	// warmupRuns untimed runs per lane come first, so caches, the heap and
	// lazy set-up settle.
	warmupRuns = 3
	// minRuns is the fewest measured runs a lane ends with, however long
	// they take: with 100, at least 10 runs lie beyond the printed p90.
	minRuns = 100
	// sliceLen is how long one lane runs before the next takes over. Lanes
	// are interleaved in slices this short because hosts such as the 2-vCPU
	// development machine have phases, seconds long, in which the simulator
	// runs about twice as slowly; interleaving makes every lane sample the
	// same phases.
	sliceLen = 150 * time.Millisecond
	// overrun bounds how long past its budget the schedule may run to give
	// every lane its minimum number of runs.
	overrun = 90 * time.Second
)

// measure runs the lanes as one closed loop: a single goroutine issues runs
// back to back, round-robin over the lanes in slices, until the budget is
// spent and every lane has minRuns measured runs.
func measure(lanes []*lane, budget time.Duration, log io.Writer) {
	for _, l := range lanes {
		for i := 0; i < warmupRuns; i++ {
			l.once(false)
		}
		if l.lt != nil {
			l.lt.reset()
		}
	}
	fmt.Fprintf(log, "measuring %d lanes for %v\n", len(lanes), budget)
	start := time.Now()
	for {
		elapsed := time.Since(start)
		short := false
		for _, l := range lanes {
			short = short || len(l.runNs) < minRuns
		}
		if elapsed >= budget && !short || elapsed >= budget+overrun {
			return
		}
		for _, l := range lanes {
			if elapsed >= budget && len(l.runNs) >= minRuns {
				continue
			}
			l.slice()
		}
	}
}

// slice runs one lane for sliceLen, charging the Go runtime's allocation
// and GC activity over the slice to it. The slice starts from a collected
// heap, so the GC pacing it sees is its own: an observed lane keeps a large
// event ring live, which would otherwise raise the heap goal and spare the
// next lane its collections.
func (l *lane) slice() {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	end := time.Now().Add(sliceLen)
	for {
		l.once(true)
		l.sliceRuns++
		if time.Now().After(end) {
			break
		}
	}
	runtime.ReadMemStats(&after)
	l.allocBytes += after.TotalAlloc - before.TotalAlloc
	l.gcs += uint64(after.NumGC - before.NumGC)
	l.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// heapBytes makes one more run and returns the live heap its finished
// machine holds: the heap after a full GC while the machine is reachable,
// less the heap after one once it is not. The difference leaves out the
// benchmark's own state, such as its sample slices, which grow with the
// number of runs.
func (l *lane) heapBytes() uint64 {
	var with, without runtime.MemStats
	sys := l.once(false)
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(sys)
	runtime.GC()
	runtime.ReadMemStats(&without)
	return with.HeapAlloc - without.HeapAlloc
}
