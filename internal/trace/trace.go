// Package trace collects trap statistics from a running machine: per-cause
// counters, windowed histories over simulated time (the paper's Fig. 3
// shows the distribution of M-mode trap causes in 500 ms windows across
// the Linux boot), and world-switch rates.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"govfm/internal/hart"
	"govfm/internal/obs"
	"govfm/internal/rv"
)

// Cause buckets matching the paper's Fig. 3 legend: the five offloadable
// causes plus "other".
const (
	CauseReadTime   = "read-time"
	CauseSetTimer   = "set-timer"
	CauseMisaligned = "misaligned"
	CauseIPI        = "ipi"
	CauseRfence     = "rfence"
	CauseOther      = "other"
	// H-extension buckets (nested-virtualization workloads only).
	CauseGuestPageFault = "guest-page-fault"
	CauseVirtualInstr   = "virtual-instruction"
)

// Buckets lists the Fig. 3 categories in display order, followed by the
// H-extension buckets that only appear when a hypervisor guest runs.
var Buckets = []string{CauseReadTime, CauseSetTimer, CauseMisaligned,
	CauseIPI, CauseRfence, CauseGuestPageFault, CauseVirtualInstr,
	CauseOther}

// BucketWidth returns the length of the longest name in Buckets: the
// column width that keeps a table of them aligned.
func BucketWidth() int {
	w := 0
	for _, b := range Buckets {
		w = max(w, len(b))
	}
	return w
}

// Window is one sampling interval of trap-cause counts.
type Window struct {
	StartTick uint64
	Counts    map[string]uint64
}

// Collector classifies M-mode traps from the OS into Fig. 3 buckets.
// It is attached to harts via Attach and bucketed by CLINT time.
type Collector struct {
	WindowTicks uint64 // window length in mtime ticks
	timeFn      func() uint64

	Total   map[string]uint64
	Windows []Window
	current *Window

	// TrapsToM counts all traps that entered M-mode.
	TrapsToM uint64
}

// NewCollector creates a collector with the given window size in mtime
// ticks (0 disables windowing).
func NewCollector(windowTicks uint64, timeFn func() uint64) *Collector {
	return &Collector{
		WindowTicks: windowTicks,
		timeFn:      timeFn,
		Total:       make(map[string]uint64),
	}
}

// Attach hooks the collector into a hart's trap notification, classifying
// traps from S/U into M by their cause and the trapping context.
func (c *Collector) Attach(h *hart.Hart) {
	prev := h.OnTrap
	h.OnTrap = func(t hart.TrapInfo) {
		if prev != nil {
			prev(t)
		}
		if t.ToMode != rv.ModeM || t.FromMode == rv.ModeM {
			return
		}
		c.record(Classify(t.Cause, t.Tval, h.Reg(17)))
	}
}

// AttachTracer hooks the collector into an observability event stream
// instead of hart trap hooks: it subscribes to the tracer and classifies
// "trap:*" instants from the cause, tval, and SBI-extension args the hart
// recorded at emission time. A storeless tracer (obs.NewTracer(0)) makes
// this equivalent to Attach on every traced hart with zero ring cost.
func (c *Collector) AttachTracer(t *obs.Tracer) {
	t.Subscribe(func(e *obs.Event) {
		if e.Kind != obs.KInstant || !strings.HasPrefix(e.Name, "trap:") {
			return
		}
		modes := e.Args[obs.TrapArgModes]
		from, to := rv.Mode(modes>>8), rv.Mode(modes&0xff)
		if to != rv.ModeM || from == rv.ModeM {
			return
		}
		c.record(Classify(e.Args[obs.TrapArgCause], e.Args[obs.TrapArgTval],
			e.Args[obs.TrapArgA7]))
	})
}

// Classify maps a trap to a Fig. 3 bucket using the trap cause, the trap
// value, and (for ecalls) the SBI extension register a7 at the trap.
func Classify(cause, tval, a7 uint64) string {
	if rv.CauseIsInterrupt(cause) {
		switch rv.CauseCode(cause) {
		case rv.IntMSoft:
			return CauseIPI
		case rv.IntMTimer:
			// The machine timer interrupt is the delivery half of the
			// timer-deadline flow; Fig. 3 counts it with set-timer.
			return CauseSetTimer
		}
		return CauseOther
	}
	switch rv.CauseCode(cause) {
	case rv.ExcIllegalInstr:
		// Time CSR reads surface as illegal instructions.
		raw := uint32(tval)
		if raw>>20 == uint32(rv.CSRTime) && rv.OpcodeOf(raw) == rv.OpSystem {
			return CauseReadTime
		}
		return CauseOther
	case rv.ExcLoadAddrMisaligned, rv.ExcStoreAddrMisaligned:
		return CauseMisaligned
	case rv.ExcInstrGuestPageFault, rv.ExcLoadGuestPageFault,
		rv.ExcStoreGuestPageFault:
		return CauseGuestPageFault
	case rv.ExcVirtualInstr:
		return CauseVirtualInstr
	case rv.ExcEcallFromS, rv.ExcEcallFromU, rv.ExcEcallFromVS:
		switch a7 {
		case rv.SBIExtTimer, rv.SBILegacySetTimer:
			return CauseSetTimer
		case rv.SBIExtIPI, rv.SBILegacySendIPI:
			return CauseIPI
		case rv.SBIExtRfence, rv.SBILegacyRemoteFenceI, rv.SBILegacySfenceVMA:
			return CauseRfence
		}
		return CauseOther
	}
	return CauseOther
}

func (c *Collector) record(bucket string) {
	c.TrapsToM++
	c.Total[bucket]++
	if c.WindowTicks == 0 {
		return
	}
	now := c.timeFn()
	start := now - now%c.WindowTicks
	if c.current == nil || c.current.StartTick != start {
		c.Windows = append(c.Windows, Window{
			StartTick: start,
			Counts:    make(map[string]uint64),
		})
		c.current = &c.Windows[len(c.Windows)-1]
	}
	c.current.Counts[bucket]++
}

// TopShare returns the combined share of the five offloadable causes —
// the paper reports 99.98% on the VisionFive 2.
func (c *Collector) TopShare() float64 {
	if c.TrapsToM == 0 {
		return 0
	}
	top := c.TrapsToM - c.Total[CauseOther]
	return float64(top) / float64(c.TrapsToM)
}

// Format renders the total distribution as an aligned table.
func (c *Collector) Format() string {
	var b strings.Builder
	type kv struct {
		k string
		v uint64
	}
	rows := make([]kv, 0, len(Buckets))
	for _, k := range Buckets {
		rows = append(rows, kv{k, c.Total[k]})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	w := BucketWidth()
	fmt.Fprintf(&b, "%-*s %12s %8s\n", w, "cause", "traps", "share")
	for _, r := range rows {
		share := 0.0
		if c.TrapsToM > 0 {
			share = 100 * float64(r.v) / float64(c.TrapsToM)
		}
		fmt.Fprintf(&b, "%-*s %12d %7.2f%%\n", w, r.k, r.v, share)
	}
	fmt.Fprintf(&b, "%-*s %12d\n", w, "total", c.TrapsToM)
	return b.String()
}
