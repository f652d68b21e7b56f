package trace

import (
	"strings"
	"testing"

	"govfm/internal/obs"
	"govfm/internal/rv"
)

// traced returns a collector riding a storeless tracer, as a hart's Trace
// would feed it.
func traced(windowTicks uint64, timeFn func() uint64) (*Collector, *obs.Tracer) {
	c := NewCollector(windowTicks, timeFn)
	tr := obs.NewTracer(0)
	c.AttachTracer(tr)
	return c, tr
}

// trap emits the instant a hart records for a trap from mode from into
// mode to, with a7 the SBI extension register at the trap.
func trap(tr *obs.Tracer, cause, tval, a7 uint64, from, to rv.Mode) {
	tr.Emit(obs.Event{
		Kind: obs.KInstant, Name: "trap:" + rv.CauseString(cause),
		Args: [4]uint64{cause, tval, a7, uint64(from)<<8 | uint64(to)},
	})
}

// fire emits a trap from from into M.
func fire(tr *obs.Tracer, cause, tval, a7 uint64, from rv.Mode) {
	trap(tr, cause, tval, a7, from, rv.ModeM)
}

func TestClassification(t *testing.T) {
	var now uint64
	c, tr := traced(0, func() uint64 { return now })

	// Time-CSR read: illegal instruction whose tval encodes csrr rd, time.
	timeRead := uint64(uint32(rv.CSRTime)<<20 | rv.F3Csrrs<<12 | 10<<7 | rv.OpSystem)
	fire(tr, rv.ExcIllegalInstr, timeRead, 0, rv.ModeS)
	// Other illegal instruction.
	fire(tr, rv.ExcIllegalInstr, 0xFFFF_FFFF, 0, rv.ModeS)
	// Misaligned.
	fire(tr, rv.ExcLoadAddrMisaligned, 0x1001, 0, rv.ModeS)
	fire(tr, rv.ExcStoreAddrMisaligned, 0x1001, 0, rv.ModeS)
	// SBI calls classified by a7.
	fire(tr, rv.ExcEcallFromS, 0, rv.SBIExtTimer, rv.ModeS)
	fire(tr, rv.ExcEcallFromS, 0, rv.SBIExtIPI, rv.ModeS)
	fire(tr, rv.ExcEcallFromS, 0, rv.SBIExtRfence, rv.ModeS)
	fire(tr, rv.ExcEcallFromS, 0, rv.SBIExtDebug, rv.ModeS)
	// Interrupts.
	fire(tr, rv.Cause(rv.IntMSoft, true), 0, 0, rv.ModeS)
	fire(tr, rv.Cause(rv.IntMTimer, true), 0, 0, rv.ModeS)
	fire(tr, rv.Cause(rv.IntMExt, true), 0, 0, rv.ModeS)
	// Traps already in M, or to S, are not counted.
	fire(tr, rv.ExcIllegalInstr, 0, 0, rv.ModeM)
	trap(tr, rv.ExcEcallFromU, 0, 0, rv.ModeU, rv.ModeS)

	want := map[string]uint64{
		CauseReadTime:   1,
		CauseMisaligned: 2,
		CauseSetTimer:   2, // SBI set_timer + M-timer interrupt
		CauseIPI:        2, // SBI IPI + M-soft interrupt
		CauseRfence:     1,
		CauseOther:      3, // bad illegal, DBCN ecall, M-ext interrupt
	}
	for k, v := range want {
		if c.Total[k] != v {
			t.Errorf("%s = %d, want %d", k, c.Total[k], v)
		}
	}
	if c.TrapsToM != 11 {
		t.Errorf("TrapsToM = %d, want 11", c.TrapsToM)
	}
	wantShare := float64(11-3) / 11
	if s := c.TopShare(); s != wantShare {
		t.Errorf("TopShare = %f, want %f", s, wantShare)
	}
}

// TestClassifyHExtension pins the bucketing of the hypervisor-extension
// trap causes a nested-virtualization workload produces: the three
// guest-page-fault flavors, the virtual-instruction trap, and VS-mode
// ecalls classified by SBI extension like any other supervisor ecall.
func TestClassifyHExtension(t *testing.T) {
	tests := []struct {
		name  string
		cause uint64
		tval  uint64
		a7    uint64
		want  string
	}{
		{"fetch-gpf", rv.ExcInstrGuestPageFault, 0x8820_0000 >> 2, 0, CauseGuestPageFault},
		{"load-gpf", rv.ExcLoadGuestPageFault, 1 << 30, 0, CauseGuestPageFault},
		{"store-gpf", rv.ExcStoreGuestPageFault, 1 << 30, 0, CauseGuestPageFault},
		{"virtual-instr", rv.ExcVirtualInstr, 0x22000073, 0, CauseVirtualInstr},
		{"vs-ecall-timer", rv.ExcEcallFromVS, 0, rv.SBIExtTimer, CauseSetTimer},
		{"vs-ecall-ipi", rv.ExcEcallFromVS, 0, rv.SBIExtIPI, CauseIPI},
		{"vs-ecall-rfence", rv.ExcEcallFromVS, 0, rv.SBIExtRfence, CauseRfence},
		{"vs-ecall-hypercall", rv.ExcEcallFromVS, 0, 0x4859, CauseOther},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.cause, tc.tval, tc.a7); got != tc.want {
				t.Errorf("Classify(%d, %#x, %#x) = %q, want %q",
					tc.cause, tc.tval, tc.a7, got, tc.want)
			}
		})
	}
	for _, b := range []string{CauseGuestPageFault, CauseVirtualInstr} {
		found := false
		for _, have := range Buckets {
			if have == b {
				found = true
			}
		}
		if !found {
			t.Errorf("bucket %q missing from Buckets", b)
		}
	}
}

func TestWindows(t *testing.T) {
	var now uint64
	c, tr := traced(100, func() uint64 { return now })
	fire(tr, rv.ExcLoadAddrMisaligned, 0, 0, rv.ModeS)
	now = 50
	fire(tr, rv.ExcLoadAddrMisaligned, 0, 0, rv.ModeS)
	now = 150
	fire(tr, rv.ExcStoreAddrMisaligned, 0, 0, rv.ModeS)
	now = 310
	fire(tr, rv.ExcStoreAddrMisaligned, 0, 0, rv.ModeS)
	if len(c.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(c.Windows))
	}
	if c.Windows[0].StartTick != 0 || c.Windows[0].Counts[CauseMisaligned] != 2 {
		t.Error("window 0 wrong")
	}
	if c.Windows[1].StartTick != 100 || c.Windows[1].Counts[CauseMisaligned] != 1 {
		t.Error("window 1 wrong")
	}
	if c.Windows[2].StartTick != 300 {
		t.Error("window 2 start")
	}
}

// TestCollectorSharesTracer: the collector leaves the tracer's other
// subscribers their events and counts only trap instants, not the
// monitor's "m-trap" spans or other instants on the same stream.
func TestCollectorSharesTracer(t *testing.T) {
	var called int
	tr := obs.NewTracer(0)
	tr.Subscribe(func(*obs.Event) { called++ })
	c := NewCollector(0, func() uint64 { return 0 })
	c.AttachTracer(tr)
	tr.Begin(0, 1, "m-trap")
	fire(tr, rv.ExcLoadAddrMisaligned, 0, 0, rv.ModeS)
	tr.End(0, 2)
	tr.Instant(obs.MonitorTrack, 3, "inject:csr-flip")
	if called != 4 {
		t.Errorf("the existing subscriber saw %d events, want 4", called)
	}
	if c.TrapsToM != 1 {
		t.Errorf("collector counted %d traps, want 1", c.TrapsToM)
	}
}

func TestFormat(t *testing.T) {
	c, tr := traced(0, func() uint64 { return 0 })
	fire(tr, rv.ExcLoadAddrMisaligned, 0, 0, rv.ModeS)
	out := c.Format()
	if !strings.Contains(out, "misaligned") || !strings.Contains(out, "total") {
		t.Errorf("format output: %q", out)
	}
	if empty := NewCollector(0, func() uint64 { return 0 }); empty.TopShare() != 0 {
		t.Error("empty collector TopShare must be 0")
	}
}
