package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCleanProgramExitsZero(t *testing.T) {
	path := writeTemp(t, "movi r1, 5\nadd r2, r1, r1\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "8", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("output = %q", out.String())
	}
}

func TestViolationExitsOne(t *testing.T) {
	path := writeTemp(t, "add r9, r1, r1\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "8", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "outside context") ||
		!strings.Contains(out.String(), "RR101") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCtxFlag(t *testing.T) {
	path := writeTemp(t, "add r9, r1, r1\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "8", path}, &out, &errOut); code != 1 {
		t.Fatalf("-ctx exit %d", code)
	}
	out.Reset()
	if code := run([]string{"-ctx", "16", path}, &out, &errOut); code != 0 {
		t.Fatalf("-ctx 16 exit %d: %s", code, out.String())
	}
	// -ctx is the only spelling: the old -size alias is a usage error.
	if code := run([]string{"-size", "16", path}, &out, &errOut); code != 2 {
		t.Errorf("-size exit %d, want 2", code)
	}
}

func TestInferMode(t *testing.T) {
	path := writeTemp(t, "add r13, r1, r1\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-infer", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "C = 14") || !strings.Contains(out.String(), "context size 16") {
		t.Errorf("output = %q", out.String())
	}
}

func TestInferIgnoresDeadStores(t *testing.T) {
	// A store target register still counts toward the requirement even
	// when its value is never read: the write lands in the context.
	path := writeTemp(t, "movi r13, 1\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-infer", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "C = 14") {
		t.Errorf("output = %q", out.String())
	}
}

func TestMultiRRMFlag(t *testing.T) {
	path := writeTemp(t, "add c0.r3, c0.r4, c1.r6\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "8", "-multirrm", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	// Without -multirrm the selector bit makes c1.r6 operand value 38.
	out.Reset()
	if code := run([]string{"-ctx", "8", path}, &out, &errOut); code != 1 {
		t.Fatalf("plain exit %d: %s", code, out.String())
	}
}

func TestPassesFlag(t *testing.T) {
	// ldrrm with a read in the delay slot: a hazard, not a bounds issue.
	src := "movi r2, 0\nldrrm r2\nadd r3, r1, r1\nhalt\n"
	path := writeTemp(t, src)
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "8", "-passes", "bounds", path}, &out, &errOut); code != 0 {
		t.Fatalf("bounds-only exit %d: %s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-ctx", "8", "-passes", "hazards", path}, &out, &errOut); code != 1 {
		t.Fatalf("hazards exit %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "RR201") {
		t.Errorf("output = %q", out.String())
	}
	out.Reset()
	if code := run([]string{"-ctx", "8", "-passes", "bogus", path}, &out, &errOut); code != 2 {
		t.Errorf("unknown pass exit = %d", code)
	}
}

func TestJSONFormat(t *testing.T) {
	path := writeTemp(t, "add r9, r1, r1\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "8", "-format", "json", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d", code)
	}
	var rep struct {
		Requirement int `json:"requirement"`
		Diagnostics []struct {
			Code string `json:"code"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Requirement != 10 || len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Code != "RR101" {
		t.Errorf("report = %+v", rep)
	}
	var errOut2 strings.Builder
	if code := run([]string{"-ctx", "8", "-format", "yaml", path}, &out, &errOut2); code != 2 {
		t.Errorf("bad format exit = %d", code)
	}
}

func TestSuppressionComment(t *testing.T) {
	path := writeTemp(t, "add r9, r1, r1 ; lint:ignore RR101 intentional\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "8", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "1 suppressed") {
		t.Errorf("output = %q", out.String())
	}
}

func TestDataWordsNotFlagged(t *testing.T) {
	path := writeTemp(t, "halt\n.word 0x12345678\n.word 0xffffffff\n")
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "4", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
}

func TestEntryFlag(t *testing.T) {
	// Without roots at every label, code after halt is unreachable; an
	// explicit -entry keeps only main live so r9 in helper is demoted
	// to the Info-level flat scan.
	src := "main:\nmovi r1, 1\nhalt\nhelper:\nadd r9, r1, r1\nhalt\n"
	path := writeTemp(t, src)
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "8", "-passes", "bounds", "-entry", "main", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"-ctx", "8", "-entry", "nosuch", path}, &out, &errOut); code != 2 {
		t.Errorf("unknown label exit = %d", code)
	}
}

func TestKernelMode(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-kernel"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out.String(), errOut.String())
	}
	for _, name := range []string{"runtime", "allocator", "manager-stubs", "worker"} {
		if !strings.Contains(out.String(), name+": ok") {
			t.Errorf("missing clean %s in:\n%s", name, out.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args exit = %d", code)
	}
	if code := run([]string{"-ctx", "8", "nonexistent.s"}, &out, &errOut); code != 2 {
		t.Errorf("missing file exit = %d", code)
	}
	bad := writeTemp(t, "frobnicate r1\n")
	errOut.Reset()
	if code := run([]string{"-ctx", "8", bad}, &out, &errOut); code != 2 {
		t.Errorf("bad assembly exit = %d", code)
	}
	// Assembly errors carry the offending source line.
	if !strings.Contains(errOut.String(), "line 1") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

const callerCalleeSrc = `main:
	movi r4, 1
	jal r5, stop
	movi r30, 7
	halt
stop:
	halt
`

func TestInterprocInfer(t *testing.T) {
	path := writeTemp(t, callerCalleeSrc)
	var out, errOut strings.Builder
	if code := run([]string{"-interproc", "-infer", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "C = 6") {
		t.Errorf("output = %q, want interprocedural C = 6", out.String())
	}
	// Without -interproc the flat fall-through keeps r30 live: C = 31.
	out.Reset()
	if code := run([]string{"-infer", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "C = 31") {
		t.Errorf("output = %q, want intraprocedural C = 31", out.String())
	}
}

func TestCallgraphFlag(t *testing.T) {
	path := writeTemp(t, callerCalleeSrc)
	var out, errOut strings.Builder
	if code := run([]string{"-callgraph", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	dot := out.String()
	for _, want := range []string{"digraph callgraph", `"main" -> "stop"`, "noreturn"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestRoutinesFlag(t *testing.T) {
	path := writeTemp(t, callerCalleeSrc)
	var out, errOut strings.Builder
	if code := run([]string{"-routines", "-ctx", "32", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "routine main @0: C = 6") {
		t.Errorf("output = %q", out.String())
	}
	if !strings.Contains(out.String(), "routine stop @4") {
		t.Errorf("output = %q", out.String())
	}
}

func TestSARIFFormat(t *testing.T) {
	path := writeTemp(t, "add r9, r1, r1\nhalt\n")
	var out, errOut strings.Builder
	if code := run([]string{"-ctx", "8", "-format", "sarif", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
				Level  string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("invalid SARIF: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("log = %+v", log)
	}
	if log.Runs[0].Tool.Driver.Name != "rrcheck" {
		t.Errorf("driver = %q", log.Runs[0].Tool.Driver.Name)
	}
	if len(log.Runs[0].Results) == 0 || log.Runs[0].Results[0].RuleID != "RR101" ||
		log.Runs[0].Results[0].Level != "error" {
		t.Errorf("results = %+v", log.Runs[0].Results)
	}
}

func TestKernelSARIF(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-kernel", "-interproc", "-format", "sarif"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), `"version": "2.1.0"`) {
		t.Errorf("output = %q", out.String())
	}
	// Suppressed intentional hazards surface as inSource suppressions,
	// not as new findings.
	if !strings.Contains(out.String(), `"inSource"`) {
		t.Errorf("kernel SARIF carries no inSource suppressions:\n%s", out.String())
	}
}
