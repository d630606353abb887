package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.s")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunProgram(t *testing.T) {
	path := writeProg(t, "movi r1, 5\nmovi r2, 7\nadd r3, r1, r2\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-dump", "0:4", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "halted: true") || !strings.Contains(s, "r3   = 12") {
		t.Errorf("output:\n%s", s)
	}
}

func TestRRMFlag(t *testing.T) {
	path := writeProg(t, "movi r1, 9\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-rrm", "32", "-dump", "32:34", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "r33  = 9") {
		t.Errorf("relocated run output:\n%s", out.String())
	}
}

func TestTraceFlag(t *testing.T) {
	path := writeProg(t, "movi r1, 1\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-trace", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "pc=0") || !strings.Contains(out.String(), "movi r1, 1") {
		t.Errorf("trace output:\n%s", out.String())
	}
}

func TestBudgetExhaustionExitsOne(t *testing.T) {
	path := writeProg(t, "loop: beq r0, r0, loop\n")
	var out, errOut strings.Builder
	if code := run([]string{"-max", "10", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "budget") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestModeFlag(t *testing.T) {
	path := writeProg(t, "halt\n")
	var out, errOut strings.Builder
	for _, m := range []string{"or", "add"} {
		if code := run([]string{"-mode", m, path}, &out, &errOut); code != 0 {
			t.Errorf("mode %s exit %d", m, code)
		}
	}
	// mux and bounded need a declared context size, which rrvm cannot
	// set, so they are rejected like any unknown mode.
	for _, m := range []string{"mux", "bounded", "quantum"} {
		if code := run([]string{"-mode", m, path}, &out, &errOut); code != 2 {
			t.Errorf("mode %s exit %d, want 2", m, code)
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args exit %d", code)
	}
	if code := run([]string{"nonexistent.s"}, &out, &errOut); code != 1 {
		t.Errorf("missing file exit %d", code)
	}
}

func TestShippedFibProgram(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-dump", "4:5", "../../examples/programs/fib.s"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "r4   = 55") {
		t.Errorf("fib(10) output:\n%s", out.String())
	}
	// Relocated, the result lands at the relocated register.
	out.Reset()
	if code := run([]string{"-rrm", "64", "-dump", "68:69", "../../examples/programs/fib.s"}, &out, &errOut); code != 0 {
		t.Fatalf("relocated exit %d", code)
	}
	if !strings.Contains(out.String(), "r68  = 55") {
		t.Errorf("relocated fib output:\n%s", out.String())
	}
}

func TestShippedPingPongProgram(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-dump", "0:40", "../../examples/programs/pingpong.s"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "halted: true") {
		t.Fatalf("did not halt:\n%s", s)
	}
	// Both contexts counted to the limit: A.r1 is absolute register 1,
	// B.r1 is absolute register 33.
	if !strings.Contains(s, "r1   = 10") || !strings.Contains(s, "r33  = 10") {
		t.Errorf("counters:\n%s", s)
	}
}
