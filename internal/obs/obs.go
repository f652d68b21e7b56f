// Package obs is the observability substrate for the simulator and the
// monitor: a low-overhead metrics registry (counters, gauges, sim-cycle
// histograms) and a structured event tracer recording spans and instants
// on the simulated timeline, with exporters for a plain-text metrics dump,
// machine-readable JSON (consumed by CI), and Perfetto/Chrome trace_event
// JSON.
//
// Two disciplines govern everything here, both inherited from the host
// fast paths (DESIGN.md, "Host fast paths vs. the simulated cycle model"):
//
//   - Architectural invisibility. Nothing in this package ever charges
//     simulated cycles or touches architectural state; a workload's cycle
//     and instret counts are bit-identical with observability enabled or
//     disabled. scripts/verify.sh enforces this with an equivalence gate.
//
//   - Cheap when off. Every instrument method is nil-receiver-safe, so a
//     subsystem can hold nil instrument pointers when no observer is
//     attached and pay a single predictable branch on the hot path.
//
// The simulator's own hot-path counters (TLB and decode-cache hit rates,
// page walks, trap causes) live as plain uint64 fields next to the state
// they count (see hart.PerfCounters) and are pulled into the registry at
// snapshot time through Collect callbacks — the per-instruction cost of
// observability is an ordinary increment, not an atomic or a map lookup.
package obs

import "os"

// Observer bundles a metrics registry and an event tracer. Subsystems
// accept an *Observer and tolerate nil (observability off).
type Observer struct {
	Metrics *Registry
	Trace   *Tracer
}

// Options configures a new Observer.
type Options struct {
	// TraceCap bounds the tracer's event ring (events beyond it evict the
	// oldest). Zero selects DefaultTraceCap; negative disables ring
	// storage entirely (subscribers still receive every event).
	TraceCap int
}

// DefaultTraceCap is the default event-ring bound: large enough for a
// full synthetic firmware+kernel boot, small enough to stay off the heap
// profiler's radar (~56 MiB of Event structs at 56 B each would be 1M
// events; a boot emits a few hundred thousand).
const DefaultTraceCap = 1 << 20

// New builds an Observer with a fresh registry and tracer.
func New(opts Options) *Observer {
	c := opts.TraceCap
	if c == 0 {
		c = DefaultTraceCap
	}
	if c < 0 {
		c = 0
	}
	return &Observer{
		Metrics: NewRegistry(),
		Trace:   NewTracer(c),
	}
}

// WriteTraceFile writes the tracer's ring contents to path as Chrome
// trace_event JSON (loadable in Perfetto at ui.perfetto.dev or
// chrome://tracing).
func (o *Observer) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := WriteChromeTrace(f, o.Trace.Events())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// WriteMetricsFile writes a metrics snapshot to path as JSON (the form CI
// consumes and uploads as an artifact).
func (o *Observer) WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := o.Metrics.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
