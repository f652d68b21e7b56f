package verif

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"govfm/internal/core"
	"govfm/internal/pmp"
	"govfm/internal/refmodel"
	"govfm/internal/rv"
)

// clockDriven are the State fields the bridge does not carry: the
// free-running counters, which Diff skips as well.
var clockDriven = map[string]bool{"Time": true, "Cycle": true, "Instret": true}

// diffName is the name refmodel.Diff gives State field f (element idx of
// an array or map field).
func diffName(f string, idx uint64) string {
	switch f {
	case "Status":
		return "mstatus"
	case "MipSW":
		return "mip.sw"
	case "MipHW":
		return "mip.hw"
	case "Regs":
		return fmt.Sprintf("x%d", idx)
	case "PmpCfg":
		return fmt.Sprintf("pmpcfg[%d]", idx)
	case "PmpAddr":
		return fmt.Sprintf("pmpaddr[%d]", idx)
	case "Custom":
		return fmt.Sprintf("custom[%#x]", idx)
	}
	return strings.ToLower(f)
}

// elems lists the elements of State field f that c implements: x1..x31,
// the virtual PMP entries, the custom CSRs; a scalar field has one.
func elems(c *refmodel.Config, f string) []uint64 {
	var is []uint64
	switch f {
	case "Regs":
		for i := 1; i < 32; i++ {
			is = append(is, uint64(i))
		}
	case "PmpCfg", "PmpAddr":
		for i := 0; i < c.PMPCount; i++ {
			is = append(is, uint64(i))
		}
	case "Custom":
		for _, n := range c.CustomCSRs {
			is = append(is, uint64(n))
		}
	default:
		is = []uint64{0}
	}
	return is
}

// distinctState gives every State field a value of its own that the bridge
// must carry: the mode, V, the CLINT lines, mstatus and the PMP entries
// get architecturally legal ones, every other uint64 field (storage the
// monitor keeps verbatim) a pattern unique to the field and element. A
// field of a kind not handled here fails the test until it is wired into
// Install, View and Diff.
func distinctState(t *testing.T, c *refmodel.Config) *refmodel.State {
	s := refmodel.NewState()
	sv := reflect.ValueOf(s).Elem()
	for k := 0; k < sv.NumField(); k++ {
		name, f := sv.Type().Field(k).Name, sv.Field(k)
		val := func(i uint64) uint64 { return uint64(k+1)<<20 | i<<4 | 5 }
		switch {
		case clockDriven[name]:
		case name == "Priv":
			s.Priv = refmodel.S
		case name == "V":
			s.V = c.HasH
		case name == "MipHW":
			// Only MSIP and MTIP are driven by the virtual CLINT.
			s.MipHW = 1<<rv.IntMSoft | 1<<rv.IntMTimer
		case name == "Status":
			mst := uint64(1)<<1 | 1<<5 | 1<<8 | 1<<11 | 1<<18 | 1<<21
			if c.HasH {
				mst |= 1<<rv.MstatusGVA | 1<<rv.MstatusMPV
			}
			s.Status = refmodel.MstatusFromBits(mst)
		case name == "PmpCfg":
			for _, i := range elems(c, name) {
				s.PmpCfg[i] = pmp.CfgR | pmp.CfgX | uint8(i%4)<<3
			}
		case f.Kind() == reflect.Array || f.Kind() == reflect.Map:
			for _, i := range elems(c, name) {
				setElem(f, i, val(i))
			}
		case f.Kind() == reflect.Uint64:
			f.SetUint(val(0))
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("State.%s (%s) has no bridge value: wire it into Install, View and Diff",
				name, f.Type())
		}
	}
	return s
}

// setElem sets element i of an array or map field to v.
func setElem(f reflect.Value, i, v uint64) {
	if f.Kind() == reflect.Map {
		f.SetMapIndex(reflect.ValueOf(uint16(i)), reflect.ValueOf(v))
		return
	}
	f.Index(int(i)).SetUint(v)
}

// perturb changes element i of field f (its first field, for a struct).
func perturb(f reflect.Value, i uint64) {
	switch f.Kind() {
	case reflect.Map:
		setElem(f, i, f.MapIndex(reflect.ValueOf(uint16(i))).Uint()^1)
	case reflect.Array:
		perturb(f.Index(int(i)), 0)
	case reflect.Struct:
		perturb(f.Field(0), 0)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	default:
		f.SetUint(f.Uint() ^ 1)
	}
}

// TestBridgeRoundTrip pins the reference bridge to refmodel.State: every
// field, found by reflection, must survive Install then View with an empty
// Diff, and a change to any one field after install must make Diff name
// that field, on at least one profile (H fields on p550, stimecmp on
// rva23). Every exported uint64 field of core.VirtCSRs must have a
// same-named State field, so a virtual CSR added on the monitor's side
// alone fails too.
func TestBridgeRoundTrip(t *testing.T) {
	st := reflect.TypeOf(refmodel.State{})
	vt := reflect.TypeOf(core.VirtCSRs{})
	for k := 0; k < vt.NumField(); k++ {
		f := vt.Field(k)
		name := f.Name
		switch {
		case !f.IsExported() || f.Type.Kind() != reflect.Uint64:
			continue
		case name == "Mcycle" || name == "Minstret": // counters
			continue
		case name == "Mstatus":
			name = "Status"
		}
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("core.VirtCSRs.%s has no refmodel.State.%s", f.Name, name)
		}
	}

	named := map[string]bool{}
	for pname, mk := range platforms() {
		h := newHarness(t, mk())
		c := h.RefCfg
		s := distinctState(t, c)
		Install(h.Mon, h.Ctx, s)
		got := View(h.Mon, h.Ctx)
		if ds := refmodel.Diff(c, got, s); len(ds) > 0 {
			t.Fatalf("%s: Install then View: %v", pname, ds)
		}
		for k := 0; k < st.NumField(); k++ {
			name := st.Field(k).Name
			if clockDriven[name] {
				continue
			}
			kind := st.Field(k).Type.Kind()
			for _, i := range elems(c, name) {
				p := s.Clone()
				perturb(reflect.ValueOf(p).Elem().Field(k), i)
				ds := refmodel.Diff(c, got, p)
				want := diffName(name, i)
				if len(ds) == 0 && kind != reflect.Array && kind != reflect.Map {
					continue // a scalar this profile does not implement
				}
				if len(ds) != 1 || ds[0].Field != want {
					t.Fatalf("%s: perturbing State.%s: Diff = %v, want one delta %q",
						pname, name, ds, want)
				}
				named[name] = true
			}
		}
	}
	for k := 0; k < st.NumField(); k++ {
		if name := st.Field(k).Name; !clockDriven[name] && !named[name] {
			t.Errorf("refmodel.Diff compares State.%s on no profile", name)
		}
	}
}
