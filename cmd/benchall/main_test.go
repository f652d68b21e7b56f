package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsUnknownKeys: a -only list with any key that names no
// experiment exits 2 before running anything, and names the valid keys.
func TestRunRejectsUnknownKeys(t *testing.T) {
	for _, only := range []string{"bogus", "fig3,tabel4", "simhost"} {
		var out, errw bytes.Buffer
		if code := run([]string{"-only", only}, &out, &errw); code != 2 {
			t.Errorf("-only %s: exit %d, want 2", only, code)
		}
		if out.Len() != 0 {
			t.Errorf("-only %s ran something:\n%s", only, out.String())
		}
		if !strings.Contains(errw.String(), "fig3,table4,") || !strings.Contains(errw.String(), ",fork") {
			t.Errorf("-only %s: message does not name the valid keys: %s", only, errw.String())
		}
	}
}

func TestRunTable4(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-only", "table4"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "Table 4:") || strings.Contains(out.String(), "Fork latency") {
		t.Errorf("-only table4 printed:\n%s", out.String())
	}
}
