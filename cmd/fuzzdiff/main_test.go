package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	var out, errw bytes.Buffer

	if code := run([]string{"-profile", "bogus"}, &out, &errw); code != 2 {
		t.Errorf("unknown profile: exit %d, want 2", code)
	}
	if code := run([]string{"-bad-flag"}, &out, &errw); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	for _, b := range []string{"0", "-5"} {
		if code := run([]string{"-budget", b}, &out, &errw); code != 2 {
			t.Errorf("-budget %s: exit %d, want 2", b, code)
		}
	}

	out.Reset()
	code := run([]string{"-profile", "vf2", "-seed", "3", "-budget", "2000",
		"-repros", t.TempDir()}, &out, &errw)
	if code != 0 {
		t.Errorf("short clean run: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "0 divergence(s)") {
		t.Errorf("summary missing: %s", out.String())
	}
}

func TestRunInjectMode(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-profile", "vf2", "-seed", "5", "-inject", "6"}, &out, &errw)
	if code != 0 {
		t.Errorf("inject mode: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "inject: cases=6") {
		t.Errorf("inject summary missing: %s", out.String())
	}
}

func TestRunEquivMode(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-profile", "vf2", "-equiv", "9"}, &out, &errw)
	if code != 0 {
		t.Errorf("equiv mode: exit %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "equiv: 9 cases (6 multi-hart)") {
		t.Errorf("equiv summary missing: %s", out.String())
	}
}
