package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"time"

	"govfm/internal/core"
	"govfm/internal/hart"
)

// Layer timing from outside the program: a traced run wraps every hart's
// monitor hook and the monitor's policy, and times each set-up call, so host
// time splits into hart stepping, monitor trap handling and policy hooks
// without touching the packages it measures.

// Set-up steps of a run, each timed in a traced run.
const (
	stepAsm        = iota // assemble firmware and kernel
	stepNewMachine        // build the machine and load the images
	stepAttachBoot        // attach the monitor and boot it
	stepSpawn             // fork runs: spawn a child from the snapshot
	stepFork              // fork runs: fork the monitor onto the child
	numSteps
)

var stepNames = [numSteps]string{"asm.build", "hart.new_machine", "core.attach_boot", "mem.spawn", "core.fork"}

// Classes of monitor trap, from which Stats counter a HandleMTrap call moved.
const (
	classFastPath = iota
	classEmulate
	classWorldSwitch
	classOther
	numClasses
)

var classNames = [numClasses]string{"fastpath", "emulate", "worldswitch", "other"}

// classify names the work one HandleMTrap did from the change it made to the
// hart's monitor counters: a world switch outranks a fast-path hit, which
// outranks an emulation.
func classify(before, after *core.Stats) int {
	switch {
	case after.WorldSwitches != before.WorldSwitches:
		return classWorldSwitch
	case after.FastPathHits != before.FastPathHits:
		return classFastPath
	case after.Emulations != before.Emulations:
		return classEmulate
	}
	return classOther
}

// span is one timed call: a run, a set-up step, Machine.Run, a HandleMTrap
// or a policy hook.
type span struct {
	name       string
	start, end time.Time
	parent     int32 // index of the enclosing span, -1 for a run
}

// layerTrace accumulates a traced lane's host time per layer over its runs,
// and records the spans of one run. The zero value is ready; a nil
// *layerTrace times nothing, so untraced runs share the set-up code.
type layerTrace struct {
	recording bool   // record spans for the run in progress
	spans     []span // spans of the recorded run
	stack     []int32
	inTrap    bool
	hookDepth int

	runs     int
	runNs    int64
	stepNs   [numSteps]int64
	trapN    [numClasses]int64
	trapNs   [numClasses]int64
	trapHist hist
	hookN    int64
	hookNs   int64 // outermost policy hooks only: nested calls are inside it
	hookInNs int64 // the part of hookNs spent inside HandleMTrap
	count    counters
}

// open starts a span at t when recording, returning its index or -1.
func (lt *layerTrace) open(name string, t time.Time) int32 {
	if lt == nil || !lt.recording {
		return -1
	}
	parent := int32(-1)
	if n := len(lt.stack); n > 0 {
		parent = lt.stack[n-1]
	}
	id := int32(len(lt.spans))
	lt.spans = append(lt.spans, span{name: name, start: t, parent: parent})
	lt.stack = append(lt.stack, id)
	return id
}

// close ends span id at t.
func (lt *layerTrace) close(id int32, t time.Time) {
	if id < 0 {
		return
	}
	lt.spans[id].end = t
	lt.stack = lt.stack[:len(lt.stack)-1]
}

// step runs one set-up step, timing it when lt is non-nil.
func (lt *layerTrace) step(i int, f func() error) error {
	if lt == nil {
		return f()
	}
	start := time.Now()
	id := lt.open(stepNames[i], start)
	err := f()
	end := time.Now()
	lt.close(id, end)
	lt.stepNs[i] += end.Sub(start).Nanoseconds()
	return err
}

// endRun adds one finished run: its Machine.Run time and simulator counts.
func (lt *layerTrace) endRun(runNs int64, c counters) {
	lt.runs++
	lt.runNs += runNs
	lt.count.add(c)
	lt.endSpans()
}

// endSpans stops recording, dropping any span a failed run left open.
func (lt *layerTrace) endSpans() {
	lt.recording = false
	lt.stack = lt.stack[:0]
}

// reset drops everything accumulated so far, such as a fork parent's boot
// and the warm-up runs, and records the spans of the next run.
func (lt *layerTrace) reset() { *lt = layerTrace{recording: true} }

// wrapMonitors replaces every hart's monitor hook with a timing wrapper.
func (lt *layerTrace) wrapMonitors(m *hart.Machine, mon *core.Monitor) {
	for i, h := range m.Harts {
		h.Monitor = &tracedMonitor{inner: h.Monitor, ctx: mon.Ctx[i], lt: lt}
	}
}

// tracedMonitor times one hart's HandleMTrap calls and classifies each by
// the monitor counters it moved.
type tracedMonitor struct {
	inner hart.Monitor
	ctx   *core.HartCtx
	lt    *layerTrace
}

func (t *tracedMonitor) HandleMTrap(h *hart.Hart) {
	lt := t.lt
	before := t.ctx.Stats
	start := time.Now()
	id := lt.open("core.mtrap", start)
	lt.inTrap = true
	t.inner.HandleMTrap(h)
	lt.inTrap = false
	end := time.Now()
	lt.close(id, end)
	ns := end.Sub(start).Nanoseconds()
	c := classify(&before, &t.ctx.Stats)
	lt.trapN[c]++
	lt.trapNs[c] += ns
	lt.trapHist.add(ns)
}

// wrapPolicy wraps p (nil meaning core.BasePolicy) in a timing wrapper. The
// wrapper must be forkable exactly when p is, since Monitor.Fork accepts
// only BasePolicy or a PolicyForker; every policy the benchmark uses is one
// of those, and any other is refused here.
func (lt *layerTrace) wrapPolicy(p core.Policy) (core.Policy, error) {
	switch p.(type) {
	case nil:
		p = core.BasePolicy{}
	case core.BasePolicy, core.PolicyForker:
	default:
		return nil, fmt.Errorf("policy %q cannot be forked, so it cannot be traced", p.Name())
	}
	return &tracedPolicy{inner: p, lt: lt}, nil
}

// tracedPolicy times every hook of the policy it wraps. It forwards the
// optional interfaces the monitor looks for: core.DMAPolicy (asked for the
// policy's IOPMP rule, where a policy without one contributes the zero rule)
// and core.PolicyForker (Monitor.Fork).
type tracedPolicy struct {
	inner core.Policy
	lt    *layerTrace
}

// hookCall is an open policy hook.
type hookCall struct {
	start time.Time
	span  int32
}

func (p *tracedPolicy) enter(name string) hookCall {
	p.lt.hookDepth++
	start := time.Now()
	return hookCall{start: start, span: p.lt.open(name, start)}
}

func (p *tracedPolicy) leave(c hookCall) {
	lt := p.lt
	end := time.Now()
	lt.close(c.span, end)
	lt.hookN++
	if lt.hookDepth--; lt.hookDepth == 0 {
		ns := end.Sub(c.start).Nanoseconds()
		lt.hookNs += ns
		if lt.inTrap {
			lt.hookInNs += ns
		}
	}
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) OnFirmwareEcall(c *core.HartCtx) core.Action {
	h := p.enter("policy.OnFirmwareEcall")
	a := p.inner.OnFirmwareEcall(c)
	p.leave(h)
	return a
}

func (p *tracedPolicy) OnFirmwareTrap(c *core.HartCtx, cause, tval uint64) core.Action {
	h := p.enter("policy.OnFirmwareTrap")
	a := p.inner.OnFirmwareTrap(c, cause, tval)
	p.leave(h)
	return a
}

func (p *tracedPolicy) OnOSEcall(c *core.HartCtx) core.Action {
	h := p.enter("policy.OnOSEcall")
	a := p.inner.OnOSEcall(c)
	p.leave(h)
	return a
}

func (p *tracedPolicy) OnOSTrap(c *core.HartCtx, cause, tval uint64) core.Action {
	h := p.enter("policy.OnOSTrap")
	a := p.inner.OnOSTrap(c, cause, tval)
	p.leave(h)
	return a
}

func (p *tracedPolicy) OnInterrupt(c *core.HartCtx, code uint64) core.Action {
	h := p.enter("policy.OnInterrupt")
	a := p.inner.OnInterrupt(c, code)
	p.leave(h)
	return a
}

func (p *tracedPolicy) OnWorldSwitch(c *core.HartCtx, to core.World) {
	h := p.enter("policy.OnWorldSwitch")
	p.inner.OnWorldSwitch(c, to)
	p.leave(h)
}

func (p *tracedPolicy) OnFirmwareMisbehavior(c *core.HartCtx, f *core.MonitorFault) core.Action {
	h := p.enter("policy.OnFirmwareMisbehavior")
	a := p.inner.OnFirmwareMisbehavior(c, f)
	p.leave(h)
	return a
}

func (p *tracedPolicy) PolicyPMP(c *core.HartCtx, w core.World) []core.PMPRule {
	h := p.enter("policy.PolicyPMP")
	r := p.inner.PolicyPMP(c, w)
	p.leave(h)
	return r
}

// PolicyIOPMP implements core.DMAPolicy.
func (p *tracedPolicy) PolicyIOPMP(c *core.HartCtx) core.PMPRule {
	dp, ok := p.inner.(core.DMAPolicy)
	if !ok {
		return core.PMPRule{}
	}
	h := p.enter("policy.PolicyIOPMP")
	r := dp.PolicyIOPMP(c)
	p.leave(h)
	return r
}

// ForkPolicy implements core.PolicyForker: the child's policy is the inner
// policy's fork, still timed into the same lane.
func (p *tracedPolicy) ForkPolicy() core.Policy {
	inner := p.inner
	if f, ok := inner.(core.PolicyForker); ok {
		inner = f.ForkPolicy()
	}
	return &tracedPolicy{inner: inner, lt: p.lt}
}

// hist is a log-linear histogram of nanosecond durations: eight buckets per
// power of two, so a percentile read from it is within 12.5% of the sample.
type hist struct {
	n     [512]int64
	total int64
}

func histIndex(v uint64) int {
	if v < 8 {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v is in [2^e, 2^(e+1))
	return (e-2)*8 + int(v>>(e-3)&7)
}

// histMid returns the midpoint of bucket i.
func histMid(i int) float64 {
	if i < 8 {
		return float64(i)
	}
	e := i/8 + 2
	lo := uint64(8+i%8) << (e - 3)
	return float64(lo) + float64(uint64(1)<<(e-3))/2
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.n[histIndex(uint64(ns))]++
	h.total++
}

// quantile returns the q-quantile (0 < q <= 1) by nearest rank, or 0 when
// the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	rank := int64(math.Ceil(q * float64(h.total)))
	var seen int64
	for i, c := range h.n {
		if seen += c; c > 0 && seen >= rank {
			return histMid(i)
		}
	}
	return 0
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format,
// or a thread-name metadata ("M") event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeSpans writes the recorded spans of every traced lane to path as a
// Chrome trace_event file that Perfetto loads: one thread per workload,
// times in microseconds from the earliest span, and each span's id and
// parent id in its args.
func writeSpans(path string, lanes []*lane) (err error) {
	var epoch time.Time
	for _, l := range lanes {
		if l.lt != nil && len(l.lt.spans) > 0 && (epoch.IsZero() || l.lt.spans[0].start.Before(epoch)) {
			epoch = l.lt.spans[0].start
		}
	}
	events := []chromeEvent{}
	for _, l := range lanes {
		if l.lt == nil || len(l.lt.spans) == 0 {
			continue
		}
		tid := workloadIndex(l.w.name) + 1
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": l.w.name}})
		for i, s := range l.lt.spans {
			events = append(events, chromeEvent{
				Name: s.name, Ph: "X", Pid: 1, Tid: tid,
				Ts:   float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
				Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
				Args: map[string]any{"id": i, "parent": s.parent},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		return err
	}
	return w.Flush()
}
