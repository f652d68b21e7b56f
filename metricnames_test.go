package govfm_test

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"govfm/internal/obs"
)

// frozenValueNames and frozenHistNames are the metric names a monitored
// two-hart gosbi boot exports, with hart<digits>. written as hartN.:
// the hartN.*, sim.*, dev.* and mon.* families that readers of a metrics
// file (rvsim -metrics-out) see. Renaming or dropping one is a
// deliberate, visible edit to this list.
const (
	frozenValueNames = `
	dev.clint.ipi_posts dev.clint.timer_programs dev.plic.claims
	dev.plic.completes dev.uart.tx_bytes
	hartN.cycles hartN.decode.hits hartN.decode.misses
	hartN.host.fills hartN.host.hits hartN.host.skip_mmio
	hartN.host.skip_pmp_partial hartN.host.skip_sealed
	hartN.host.skip_untouched hartN.host.skip_watched
	hartN.host.watched_hits hartN.instret
	hartN.pagewalks hartN.pmp.checks hartN.pmp.views
	hartN.sb.aborts hartN.sb.chains hartN.sb.guard_misses hartN.sb.hits
	hartN.sb.retired hartN.sb.rounds hartN.sb.translations
	hartN.sinstret hartN.smc.code_invalidations hartN.smc.data_writes
	hartN.tlb.hits hartN.tlb.misses
	hartN.trap:ecall-from-s hartN.trap:illegal-instruction
	hartN.trap:load-addr-misaligned hartN.trap:machine-software-interrupt
	hartN.trap:machine-timer-interrupt hartN.trap:store-access-fault
	hartN.trap:store-addr-misaligned
	hartN.trap:supervisor-software-interrupt
	hartN.trap:supervisor-timer-interrupt
	hartN.traps
	mon.degraded_calls mon.degraded_harts
	mon.emu.csrrc mon.emu.csrrs mon.emu.csrrw mon.emu.mret mon.emu.wfi
	mon.emulations mon.fastpath_hits mon.faults mon.faults.contained
	mon.fw_restarts mon.fw_traps mon.mmio_emulations mon.os_traps
	mon.sbi.BASE mon.sbi.DBCN mon.sbi.HSM mon.sbi.IPI mon.sbi.RFNC
	mon.sbi.SRST mon.sbi.TIME
	mon.virt_interrupts mon.wall_probes mon.watchdog_fires mon.world_switches
	sim.cycles sim.decode.hit_pct sim.decode.hits sim.decode.misses
	sim.host.fills sim.host.hits sim.host.skip_mmio
	sim.host.skip_pmp_partial sim.host.skip_sealed
	sim.host.skip_untouched sim.host.skip_watched sim.host.watched_hits
	sim.instret sim.pagewalks
	sim.sb.aborts sim.sb.chains sim.sb.guard_misses sim.sb.hits
	sim.sb.retired sim.sb.retired_pct sim.sb.rounds sim.sb.translations
	sim.smc.code_invalidations sim.smc.data_writes sim.tlb.hit_pct
	sim.tlb.hits sim.tlb.misses sim.traps
`
	frozenHistNames = `
	mon.fw_residency_cycles
`
)

// hartPrefix is the per-hart part of a metric name.
var hartPrefix = regexp.MustCompile(`^hart\d+\.`)

// metricNames returns m's keys with hart<digits>. normalised to hartN.,
// sorted and without duplicates.
func metricNames[V any](m map[string]V) []string {
	var names []string
	for k := range m {
		names = append(names, hartPrefix.ReplaceAllString(k, "hartN."))
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// TestMetricNamesFrozen fails when the metric names of a monitored boot
// change, listing the names that appeared and vanished.
func TestMetricNamesFrozen(t *testing.T) {
	ob := obs.New(obs.Options{})
	bootMonitored(t, 2, ob)
	snap := ob.Metrics.Snapshot()
	for _, c := range []struct {
		kind      string
		got, want []string
	}{
		{"value", metricNames(snap.Values), strings.Fields(frozenValueNames)},
		{"histogram", metricNames(snap.Hists), strings.Fields(frozenHistNames)},
	} {
		for _, n := range c.got {
			if !slices.Contains(c.want, n) {
				t.Errorf("new %s metric %s", c.kind, n)
			}
		}
		for _, n := range c.want {
			if !slices.Contains(c.got, n) {
				t.Errorf("%s metric %s is gone", c.kind, n)
			}
		}
	}
}
