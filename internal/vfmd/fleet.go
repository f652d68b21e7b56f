// Package vfmd is the virtual-firmware-monitor fleet service: a control
// plane that boots simulated machines, snapshots them into copy-on-write
// images, spawns any number of children from an image (monitor state
// forked alongside), and runs step-budget jobs on a supervised, bounded
// worker pool. cmd/vfmd serves it over HTTP/JSON; cmd/fuzzdiff and
// cmd/chaos can run their campaigns through it as clients, so campaign
// cases spawn from a shared post-boot snapshot instead of each
// re-simulating the boot.
//
// The worker pool is a supervision boundary (supervise.go): jobs carry
// host wall-clock deadlines with cooperative cancellation, a panicking
// simulation becomes a JobFailed with a structured FaultReport instead of
// a dead process, submissions beyond the bounded queue are load-shed, and
// a machine whose jobs keep dying is quarantined and respawned from its
// originating snapshot, capped — the monitor's own firmware containment
// story applied one level up.
//
// Every machine carries its own obs.Observer; per-machine metrics and
// Perfetto traces are served from the API. Machines are serialized by a
// per-machine mutex (a machine runs one job at a time); distinct machines
// run concurrently — COW fork isolation is what makes that safe, and the
// -race server test is the gate.
package vfmd

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"govfm"
	"govfm/internal/hart"
	"govfm/internal/obs"
)

// MachineSpec describes a machine to boot, mirroring govfm.Config in
// JSON-friendly form.
type MachineSpec struct {
	Profile        string `json:"profile,omitempty"`  // visionfive2 (default), p550, rva23
	Harts          int    `json:"harts,omitempty"`    // 0 = profile default
	Firmware       string `json:"firmware,omitempty"` // gosbi (default), minsbi, rtos
	Virtualize     bool   `json:"virtualize,omitempty"`
	Offload        bool   `json:"offload,omitempty"`
	Policy         string `json:"policy,omitempty"` // "", sandbox, keystone, ace
	Containment    bool   `json:"containment,omitempty"`
	WatchdogBudget uint64 `json:"watchdog_budget,omitempty"`
	Sched          string `json:"sched,omitempty"` // seq (default), par
	Quantum        uint64 `json:"quantum,omitempty"`
	IOPMP          bool   `json:"iopmp,omitempty"`

	// WarmupSteps runs the machine this many steps right after boot,
	// before the create call returns — the "boot to steady state once,
	// snapshot, spawn many" idiom in one round trip.
	WarmupSteps uint64 `json:"warmup_steps,omitempty"`
}

// MachineInfo is the externally visible machine state.
type MachineInfo struct {
	ID         string      `json:"id"`
	Spec       MachineSpec `json:"spec"`
	Halted     bool        `json:"halted"`
	HaltReason string      `json:"halt_reason,omitempty"`
	Cycles     uint64      `json:"cycles"`
	Instret    uint64      `json:"instret"`
	Monitored  bool        `json:"monitored"`
	Console    string      `json:"console,omitempty"`

	// Supervision state: quarantine fencing and snapshot respawns.
	Quarantined    bool   `json:"quarantined,omitempty"`
	QuarReason     string `json:"quarantine_reason,omitempty"`
	Strikes        int    `json:"strikes,omitempty"`
	Respawns       int    `json:"respawns,omitempty"`
	OriginSnapshot string `json:"origin_snapshot,omitempty"`
}

// SnapshotInfo describes a stored image.
type SnapshotInfo struct {
	ID      string `json:"id"`
	Machine string `json:"machine"`
	Pages   int    `json:"pages"`
}

// RunResult is a run job's outcome.
type RunResult struct {
	Machine    string `json:"machine"`
	Steps      uint64 `json:"steps"`
	Halted     bool   `json:"halted"`
	HaltReason string `json:"halt_reason,omitempty"`
	Cycles     uint64 `json:"cycles"`
}

// machineEntry is one live machine. mu serializes everything that touches
// the simulation (runs, snapshots, state reads that must be coherent);
// the fleet lock is never held while a machine runs. Quarantine fields
// (strikes, quarantined, respawns) are guarded by the fleet lock.
type machineEntry struct {
	id         string
	spec       MachineSpec
	originSnap string // snapshot this machine was spawned from ("" = booted)

	mu  sync.Mutex
	sys *govfm.System
	obs *obs.Observer

	killed atomic.Bool // mid-job kill flag, checked at chunk boundaries

	// guarded by Fleet.mu:
	strikes     int
	quarantined bool
	quarReason  string
	respawns    int
}

// snapshotEntry is one stored image plus, for monitored machines, a
// never-run template system whose monitor state matches the image exactly
// — the fork source for spawns (the origin machine may run on and diverge
// after the snapshot; the template cannot).
type snapshotEntry struct {
	id       string
	machine  string
	spec     MachineSpec
	img      *hart.Image
	template *govfm.System
	obs      *obs.Observer // origin's observer; spawns inherit its config
	pages    int
}

// spawnOne builds one child system from the image: COW machine spawn,
// forked monitor for monitored origins, fresh observer. Safe to call
// concurrently (the template is never run; forking is read-only on it).
func (s *snapshotEntry) spawnOne() (*govfm.System, *obs.Observer, error) {
	child, err := hart.SpawnFromImage(s.img)
	if err != nil {
		return nil, nil, err
	}
	o := s.obs.Child()
	child.AttachObs(o)
	sys := &govfm.System{Machine: child}
	if s.template != nil {
		sys.Platform = s.template.Platform
		mon, err := s.template.Monitor.Fork(child)
		if err != nil {
			return nil, nil, fmt.Errorf("monitor fork: %w", err)
		}
		mon.AttachObs(o)
		sys.Monitor = mon
	}
	return sys, o, nil
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one unit of worker-pool work.
type Job struct {
	ID      string   `json:"id"`
	Kind    string   `json:"kind"`
	State   JobState `json:"state"`
	Error   string   `json:"error,omitempty"`
	Machine string   `json:"machine,omitempty"`
	// Result holds the job's outcome once State is JobDone: *RunResult
	// for run jobs, *CampaignResult for campaign jobs.
	Result any `json:"result,omitempty"`
	// Fault is the supervision layer's structured report when the job was
	// killed (panic, deadline, machine kill) rather than failing cleanly.
	Fault *FaultReport `json:"fault,omitempty"`

	// mu is a pointer so Job value snapshots (which drop fn/done/mu
	// semantics and are plain data) copy cleanly.
	fn   func(jc *JobCtx) (any, error)
	done chan struct{}
	mu   *sync.Mutex

	entry        *machineEntry // machine the job targets, if any
	wall         time.Duration // wall-clock budget (0 = none)
	deadline     time.Time     // set when the job starts running
	containTrips int           // monitor fault records produced by the job
}

func (j *Job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Job{ID: j.ID, Kind: j.Kind, State: j.State, Error: j.Error,
		Machine: j.Machine, Result: j.Result, Fault: j.Fault}
}

func (j *Job) machineID() string { return j.Machine }

// Wait blocks until the job finishes and returns its terminal snapshot.
func (j *Job) Wait() Job {
	<-j.done
	return j.snapshot()
}

// waitTimeout blocks up to d (forever when d <= 0) and returns the
// current snapshot, terminal or not.
func (j *Job) waitTimeout(d time.Duration) Job {
	if d <= 0 {
		return j.Wait()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.done:
	case <-t.C:
	}
	return j.snapshot()
}

// FleetOptions parameterizes a fleet. Zero values select the defaults.
type FleetOptions struct {
	Workers  int // worker-pool width (default: 1)
	QueueCap int // bounded job-queue capacity (default 256)

	// DefaultWall is the per-job wall-clock budget applied when a
	// submission carries none. Zero = unbounded.
	DefaultWall time.Duration

	// MaxSteps caps a run job's step budget at admission. Zero =
	// unbounded.
	MaxSteps uint64

	// QuarantineStrikes is the strike threshold that fences a machine
	// (default 3). Panics, deadline overruns, and mid-job kills weigh a
	// full threshold; containment trips weigh one strike each.
	QuarantineStrikes int

	// RespawnCap bounds how many times a quarantined machine is respawned
	// from its originating snapshot (default 3), mirroring the monitor's
	// firmware restart cap.
	RespawnCap int

	// DrainGrace is how long Close waits for queued and running jobs
	// before forcing cancellation (default 5s).
	DrainGrace time.Duration

	// Obs receives fleet-level counters (job outcomes, quarantines,
	// respawns) and the queue-depth gauge. Nil = no instrumentation.
	Obs *obs.Observer

	// Hook, when non-nil, is invoked at supervision points ("job:start",
	// "run:chunk") inside the worker's panic boundary. The fleet chaos
	// campaign injects worker panics and stuck jobs through it; leave nil
	// in production.
	Hook func(point string, j *Job)
}

func (o *FleetOptions) defaults() {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.QuarantineStrikes <= 0 {
		o.QuarantineStrikes = 3
	}
	if o.RespawnCap <= 0 {
		o.RespawnCap = 3
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 5 * time.Second
	}
}

// fleetCounters is the obs wiring; every field is nil-safe when no
// observer is attached.
type fleetCounters struct {
	jobsSubmitted *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsPanic     *obs.Counter
	jobsDeadline  *obs.Counter
	jobsShed      *obs.Counter
	jobsRejected  *obs.Counter
	quarantines   *obs.Counter
	respawns      *obs.Counter
	queueDepth    *obs.Gauge
}

// Fleet is the machine/snapshot/job store plus the supervised worker
// pool.
type Fleet struct {
	opts     FleetOptions
	counters fleetCounters

	mu          sync.Mutex
	machines    map[string]*machineEntry
	snapshots   map[string]*snapshotEntry
	jobs        map[string]*Job
	idem        map[string]string // idempotency key -> job ID
	faults      []FaultReport
	quarantines []QuarantineReport
	nextID      uint64
	closed      bool

	jobQ      chan *Job
	depth     atomic.Int64 // queued jobs (gauge source)
	jobWG     sync.WaitGroup
	wg        sync.WaitGroup
	shedding  atomic.Bool   // forced drain: fail queued jobs instead of running
	cancelAll chan struct{} // closed at forced drain: running jobs stop at next chunk
}

// NewFleet builds a fleet with the given worker-pool width and default
// supervision settings.
func NewFleet(workers int) *Fleet {
	return NewFleetWith(FleetOptions{Workers: workers})
}

// NewFleetWith builds a fleet from explicit options.
func NewFleetWith(opts FleetOptions) *Fleet {
	opts.defaults()
	f := &Fleet{
		opts:      opts,
		machines:  map[string]*machineEntry{},
		snapshots: map[string]*snapshotEntry{},
		jobs:      map[string]*Job{},
		idem:      map[string]string{},
		jobQ:      make(chan *Job, opts.QueueCap),
		cancelAll: make(chan struct{}),
	}
	if o := opts.Obs; o != nil && o.Metrics != nil {
		r := o.Metrics
		f.counters = fleetCounters{
			jobsSubmitted: r.Counter("fleet.jobs.submitted"),
			jobsDone:      r.Counter("fleet.jobs.done"),
			jobsFailed:    r.Counter("fleet.jobs.failed"),
			jobsPanic:     r.Counter("fleet.jobs.panic"),
			jobsDeadline:  r.Counter("fleet.jobs.deadline"),
			jobsShed:      r.Counter("fleet.jobs.shed"),
			jobsRejected:  r.Counter("fleet.jobs.rejected"),
			quarantines:   r.Counter("fleet.quarantines"),
			respawns:      r.Counter("fleet.respawns"),
			queueDepth:    r.Gauge("fleet.queue_depth"),
		}
	}
	for i := 0; i < opts.Workers; i++ {
		f.wg.Add(1)
		go f.worker()
	}
	return f
}

// worker drains the job queue. Everything a job does runs inside
// runGuarded's panic boundary; the worker itself cannot be killed by a
// crashing simulation.
func (f *Fleet) worker() {
	defer f.wg.Done()
	for j := range f.jobQ {
		f.counters.queueDepth.Set(uint64(max64(f.depth.Add(-1), 0)))
		if f.shedding.Load() {
			f.noteJobOutcome(j, ErrShed)
			f.finishJob(j, nil, ErrShed)
			continue
		}
		j.mu.Lock()
		j.State = JobRunning
		j.mu.Unlock()
		if j.wall > 0 {
			j.deadline = time.Now().Add(j.wall)
		}
		res, err := f.runGuarded(j)
		f.noteJobOutcome(j, err)
		f.finishJob(j, res, err)
	}
}

// errPanic marks job failures that were recovered panics; the machine
// involved is quarantined immediately.
var errPanic = errors.New("worker panic")

// runGuarded executes the job function behind the worker panic boundary:
// a panic anywhere below — the simulation, the monitor, a campaign —
// becomes a JobFailed with a structured FaultReport instead of a dead
// process. Deferred unlocks inside the job function run during unwinding,
// so a panicking run job still releases its machine lock.
func (f *Fleet) runGuarded(j *Job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			fr := &FaultReport{
				Job: j.ID, Kind: j.Kind, Machine: j.machineID(),
				Reason: "panic",
				Panic:  fmt.Sprint(r),
				Stack:  string(debug.Stack()),
			}
			f.recordFault(fr)
			j.mu.Lock()
			j.Fault = fr
			j.mu.Unlock()
			res, err = nil, fmt.Errorf("%w: %v", errPanic, r)
		}
	}()
	if h := f.opts.Hook; h != nil {
		h("job:start", j)
	}
	return j.fn(&JobCtx{job: j, fleet: f})
}

// finishJob transitions a job to its terminal state exactly once.
func (f *Fleet) finishJob(j *Job, res any, err error) {
	j.mu.Lock()
	if j.State.Terminal() {
		j.mu.Unlock()
		return
	}
	if err != nil {
		j.State, j.Error = JobFailed, err.Error()
	} else {
		j.State, j.Result = JobDone, res
	}
	j.mu.Unlock()
	close(j.done)
	f.jobWG.Done()
}

// Close gracefully drains the fleet: intake stops, queued and running
// jobs get DrainGrace to finish, then queued jobs are shed and running
// jobs are cancelled cooperatively. Jobs that ignore cancellation for
// another grace period are force-failed so every job still reaches a
// terminal state.
func (f *Fleet) Close() { f.Shutdown(f.opts.DrainGrace) }

// Shutdown is Close with an explicit grace period.
func (f *Fleet) Shutdown(grace time.Duration) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	if grace <= 0 {
		grace = time.Millisecond
	}

	drained := make(chan struct{})
	go func() { f.jobWG.Wait(); close(drained) }()

	graceful := true
	select {
	case <-drained:
	case <-time.After(grace):
		graceful = false
		f.shedding.Store(true)
		close(f.cancelAll)
		select {
		case <-drained:
			graceful = true
		case <-time.After(grace):
			// Something is ignoring cooperative cancellation (a hook
			// sleeping forever, a hostile job). Force-fail whatever is
			// left so every job is terminal; its worker goroutine is
			// abandoned to the process exit.
			for _, j := range f.nonTerminalJobs() {
				f.counters.jobsShed.Inc()
				f.finishJob(j, nil, fmt.Errorf("orphaned at shutdown: %w", ErrShed))
			}
		}
	}
	close(f.jobQ)
	if graceful {
		f.wg.Wait()
	}
}

func (f *Fleet) nonTerminalJobs() []*Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*Job
	for _, j := range f.jobs {
		j.mu.Lock()
		term := j.State.Terminal()
		j.mu.Unlock()
		if !term {
			out = append(out, j)
		}
	}
	return out
}

func (f *Fleet) newID(prefix string) string {
	f.nextID++
	return fmt.Sprintf("%s%d", prefix, f.nextID)
}

// buildPolicy maps a policy name to an instance (each machine gets its
// own — policies hold per-machine state).
func buildPolicy(name string) (govfm.Policy, error) {
	switch name {
	case "":
		return nil, nil
	case "sandbox":
		return govfm.SandboxPolicy(), nil
	case "keystone":
		return govfm.KeystonePolicy(), nil
	case "ace":
		return govfm.ACEPolicy(), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// CreateMachine boots a machine from the spec (plus optional warmup) and
// registers it.
func (f *Fleet) CreateMachine(spec MachineSpec) (*MachineInfo, error) {
	pol, err := buildPolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	o := obs.New(obs.Options{})
	sys, err := govfm.New(govfm.Config{
		Platform:       govfm.Platform(spec.Profile),
		Harts:          spec.Harts,
		Firmware:       govfm.FirmwareKind(spec.Firmware),
		Virtualize:     spec.Virtualize,
		Offload:        spec.Offload,
		Policy:         pol,
		Containment:    spec.Containment,
		WatchdogBudget: spec.WatchdogBudget,
		Sched:          spec.Sched,
		Quantum:        spec.Quantum,
		IOPMP:          spec.IOPMP,
		Obs:            o,
	})
	if err != nil {
		return nil, err
	}
	if spec.WarmupSteps > 0 {
		sys.Machine.Run(spec.WarmupSteps)
	}
	e := &machineEntry{spec: spec, sys: sys, obs: o}
	f.mu.Lock()
	e.id = f.newID("m")
	f.machines[e.id] = e
	f.mu.Unlock()
	return f.info(e), nil
}

func (f *Fleet) machine(id string) (*machineEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.machines[id]
	if !ok {
		return nil, fmt.Errorf("no machine %q", id)
	}
	return e, nil
}

// info renders the entry's current state, simulation fields under the
// machine lock and supervision fields under the fleet lock (taken in
// sequence, never nested).
func (f *Fleet) info(e *machineEntry) *MachineInfo {
	e.mu.Lock()
	m := e.sys.Machine
	halted, reason := m.Halted()
	info := &MachineInfo{
		ID: e.id, Spec: e.spec,
		Halted: halted, HaltReason: reason,
		Cycles:         m.Harts[0].Cycles,
		Instret:        m.Harts[0].Instret,
		Monitored:      e.sys.Monitor != nil,
		Console:        m.Uart.Output(),
		OriginSnapshot: e.originSnap,
	}
	e.mu.Unlock()
	f.mu.Lock()
	info.Quarantined = e.quarantined
	info.QuarReason = e.quarReason
	info.Strikes = e.strikes
	info.Respawns = e.respawns
	f.mu.Unlock()
	return info
}

// Machines lists the fleet's machines, ID-sorted.
func (f *Fleet) Machines() []*MachineInfo {
	f.mu.Lock()
	entries := make([]*machineEntry, 0, len(f.machines))
	for _, e := range f.machines {
		entries = append(entries, e)
	}
	f.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := make([]*MachineInfo, len(entries))
	for i, e := range entries {
		out[i] = f.info(e)
	}
	return out
}

// MachineInfo returns one machine's state.
func (f *Fleet) MachineInfo(id string) (*MachineInfo, error) {
	e, err := f.machine(id)
	if err != nil {
		return nil, err
	}
	return f.info(e), nil
}

// DeleteMachine removes a machine. Its snapshots survive (images are
// self-contained).
func (f *Fleet) DeleteMachine(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.machines[id]; !ok {
		return fmt.Errorf("no machine %q", id)
	}
	delete(f.machines, id)
	return nil
}

// KillMachine flags a machine so its current (or next) run job fails with
// ErrMachineKilled at the next chunk boundary — the control-plane analog
// of yanking a node's power cord. The supervision layer then quarantines
// and respawns the machine. Fault injection uses it; it is also a safe
// administrative stop.
func (f *Fleet) KillMachine(id string) error {
	e, err := f.machine(id)
	if err != nil {
		return err
	}
	e.killed.Store(true)
	return nil
}

// Snapshot captures a machine into a stored image. For monitored machines
// a never-run template fork is captured with it, so later spawns get
// monitor state consistent with the image no matter what the origin does
// afterwards.
func (f *Fleet) Snapshot(machineID string) (*SnapshotInfo, error) {
	e, err := f.machine(machineID)
	if err != nil {
		return nil, err
	}
	if err := f.checkQuarantine(e); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	img, err := e.sys.Machine.Snapshot()
	if err != nil {
		return nil, err
	}
	s := &snapshotEntry{
		machine: machineID,
		spec:    e.spec,
		img:     img,
		obs:     e.obs,
		pages:   img.Mem.Pages(),
	}
	if e.sys.Monitor != nil {
		tm, err := hart.SpawnFromImage(img)
		if err != nil {
			return nil, err
		}
		tmon, err := e.sys.Monitor.Fork(tm)
		if err != nil {
			return nil, fmt.Errorf("monitor fork: %w", err)
		}
		s.template = &govfm.System{Machine: tm, Monitor: tmon, Platform: e.sys.Platform}
	}
	f.mu.Lock()
	s.id = f.newID("s")
	f.snapshots[s.id] = s
	f.mu.Unlock()
	return &SnapshotInfo{ID: s.id, Machine: s.machine, Pages: s.pages}, nil
}

func (f *Fleet) snapshotEntry(id string) (*snapshotEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.snapshots[id]
	if !ok {
		return nil, fmt.Errorf("no snapshot %q", id)
	}
	return s, nil
}

// Spawn builds count machines from a snapshot; each child shares clean
// RAM pages copy-on-write with the image and carries a forked monitor
// when the origin was monitored. Spawned machines record the snapshot as
// their origin, which is what quarantine respawns rebuild from.
func (f *Fleet) Spawn(snapshotID string, count int) ([]*MachineInfo, error) {
	if count < 1 {
		count = 1
	}
	s, err := f.snapshotEntry(snapshotID)
	if err != nil {
		return nil, err
	}
	out := make([]*MachineInfo, 0, count)
	for i := 0; i < count; i++ {
		sys, o, err := s.spawnOne()
		if err != nil {
			return nil, err
		}
		e := &machineEntry{spec: s.spec, sys: sys, obs: o, originSnap: s.id}
		f.mu.Lock()
		e.id = f.newID("m")
		f.machines[e.id] = e
		f.mu.Unlock()
		out = append(out, f.info(e))
	}
	return out, nil
}

// checkQuarantine rejects work aimed at a fenced machine.
func (f *Fleet) checkQuarantine(e *machineEntry) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e.quarantined {
		return fmt.Errorf("%w: %s (%s)", ErrQuarantined, e.id, e.quarReason)
	}
	return nil
}

// submit queues fn on the worker pool with bounded-queue admission: a
// full queue rejects the submission (ErrQueueFull) instead of blocking —
// load shedding, not backpressure — and an idempotency key returns the
// already-accepted job on duplicate submission instead of double-running.
func (f *Fleet) submit(kind string, e *machineEntry, limits JobLimits, idemKey string, fn func(*JobCtx) (any, error)) (*Job, error) {
	wall := time.Duration(limits.WallMS) * time.Millisecond
	if wall <= 0 {
		wall = f.opts.DefaultWall
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFleetClosed
	}
	if idemKey != "" {
		if id, ok := f.idem[idemKey]; ok {
			j := f.jobs[id]
			f.mu.Unlock()
			return j, nil
		}
	}
	j := &Job{
		ID: f.newID("j"), Kind: kind, State: JobQueued,
		fn: fn, done: make(chan struct{}), mu: &sync.Mutex{},
		entry: e, wall: wall,
	}
	if e != nil {
		j.Machine = e.id
	}
	// Count the job before a worker can receive it: a worker may finish
	// it, and call jobWG.Done, before this function returns.
	f.jobWG.Add(1)
	select {
	case f.jobQ <- j:
	default:
		f.jobWG.Done()
		f.mu.Unlock()
		f.counters.jobsRejected.Inc()
		return nil, fmt.Errorf("%w (cap %d)", ErrQueueFull, f.opts.QueueCap)
	}
	f.jobs[j.ID] = j
	if idemKey != "" {
		f.idem[idemKey] = j.ID
	}
	f.mu.Unlock()
	f.counters.jobsSubmitted.Inc()
	f.counters.queueDepth.Set(uint64(max64(f.depth.Add(1), 0)))
	return j, nil
}

// runChunk is the cooperative-cancellation granularity for run jobs: the
// deadline, kill flag, and shutdown signal are polled between chunks.
const runChunk = 65536

// Run queues a step-budget job for the machine with default limits.
func (f *Fleet) Run(machineID string, steps uint64) (*Job, error) {
	return f.RunJob(machineID, steps, JobLimits{}, "")
}

// RunJob queues a step-budget job with explicit limits and an optional
// idempotency key. The simulated-step budget is the job's sim-time
// deadline; limits carry the host wall-clock one.
func (f *Fleet) RunJob(machineID string, steps uint64, limits JobLimits, idemKey string) (*Job, error) {
	e, err := f.machine(machineID)
	if err != nil {
		return nil, err
	}
	if f.opts.MaxSteps > 0 && steps > f.opts.MaxSteps {
		return nil, fmt.Errorf("%w: %d > %d", ErrStepBudget, steps, f.opts.MaxSteps)
	}
	if err := f.checkQuarantine(e); err != nil {
		return nil, err
	}
	fn := func(jc *JobCtx) (any, error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		m := e.sys.Machine
		preFaults := 0
		if e.sys.Monitor != nil {
			preFaults = e.sys.Monitor.FaultCount
		}
		var done uint64
		for done < steps {
			// The hook (chaos-injected delays) runs first so the deadline
			// and kill flags are checked fresh right after any stall.
			if h := f.opts.Hook; h != nil {
				h("run:chunk", jc.job)
			}
			if err := jc.Err(); err != nil {
				return nil, err
			}
			if e.killed.Load() {
				return nil, ErrMachineKilled
			}
			n := steps - done
			if n > runChunk {
				n = runChunk
			}
			d, halted := m.Run(n)
			done += d
			if halted {
				break
			}
		}
		if e.sys.Monitor != nil && e.sys.Monitor.FaultCount > preFaults {
			jc.job.containTrips = e.sys.Monitor.FaultCount - preFaults
		}
		halted, reason := m.Halted()
		return &RunResult{
			Machine: e.id, Steps: done,
			Halted: halted, HaltReason: reason,
			Cycles: m.Harts[0].Cycles,
		}, nil
	}
	return f.submit("run", e, limits, idemKey, fn)
}

// Job returns a job's current snapshot.
func (f *Fleet) Job(id string) (Job, error) {
	f.mu.Lock()
	j, ok := f.jobs[id]
	f.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("no job %q", id)
	}
	return j.snapshot(), nil
}

// jobHandle returns the live job (internal; Wait support).
func (f *Fleet) jobHandle(id string) (*Job, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	if !ok {
		return nil, fmt.Errorf("no job %q", id)
	}
	return j, nil
}

// Status reports the control plane's own health: queue depth, job-state
// counts, quarantine and fault rings.
func (f *Fleet) Status() *FleetStatus {
	st := &FleetStatus{
		Workers:  f.opts.Workers,
		QueueCap: f.opts.QueueCap,
		Jobs:     map[string]int{},
	}
	f.mu.Lock()
	st.Closed = f.closed
	st.Machines = len(f.machines)
	for _, e := range f.machines {
		if e.quarantined {
			st.Quarantined++
		}
	}
	jobs := make([]*Job, 0, len(f.jobs))
	for _, j := range f.jobs {
		jobs = append(jobs, j)
	}
	st.Quarantines = append(st.Quarantines, f.quarantines...)
	st.Faults = append(st.Faults, f.faults...)
	f.mu.Unlock()
	st.QueueDepth = int(max64(f.depth.Load(), 0))
	for _, j := range jobs {
		j.mu.Lock()
		st.Jobs[string(j.State)]++
		j.mu.Unlock()
	}
	return st
}

// MetricsJSON renders a machine's metrics registry as JSON.
func (f *Fleet) MetricsJSON(id string, w io.Writer) error {
	e, err := f.machine(id)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.obs.Metrics.WriteJSON(w)
}

// TraceJSON renders a machine's event ring as Chrome trace_event JSON.
func (f *Fleet) TraceJSON(id string, w io.Writer) error {
	e, err := f.machine(id)
	if err != nil {
		return err
	}
	e.mu.Lock()
	events := e.obs.Trace.Events()
	e.mu.Unlock()
	return obs.WriteChromeTrace(w, events)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
