// Exit-code contract tests for the cross-validation mode: a sweep whose
// stack and direct engines disagree must terminate with a non-zero status,
// because CI scripts gate on it. The binary under test is this test binary
// re-executed — TestMain dispatches to main() when CACHESWEEP_ARGS is set,
// the standard subprocess pattern for testing os.Exit paths.
package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"palmsim/internal/dtrace"
	"palmsim/internal/exp"
	"palmsim/internal/obs"
)

func TestMain(m *testing.M) {
	if args := os.Getenv("CACHESWEEP_ARGS"); args != "" {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeTestTrace writes a small raw PALMTRC1 trace: a few interleaved
// strided streams, enough for every sweep configuration to see hits and
// misses without slowing the test down.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	var trace []uint32
	for i := uint32(0); i < 6000; i++ {
		trace = append(trace, 0x10000+4*i, 0x400000+64*(i%512), 0x10F00000+8*(i%64))
	}
	path := filepath.Join(t.TempDir(), "cross.trace")
	if err := os.WriteFile(path, exp.MarshalTrace(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCachesweep re-executes the test binary as the cachesweep command.
func runCachesweep(t *testing.T, args string, extraEnv ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CACHESWEEP_ARGS="+args)
	cmd.Env = append(cmd.Env, extraEnv...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// writeTestDin writes a small kind-carrying din trace: a hot loop of
// fetches with interleaved reads and writes over two data regions.
func writeTestDin(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&b, "2 %x\n", 0x10000+4*(i%1024))  // fetch
		fmt.Fprintf(&b, "0 %x\n", 0x400000+64*(i%512)) // read
		fmt.Fprintf(&b, "1 %x\n", 0x500000+16*(i%128)) // write
	}
	path := filepath.Join(t.TempDir(), "kinds.din")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeIndexedPackedTrace writes a small PALMPKD1 trace with a PALMIDX1
// footer, as cmd/palmsim -trace-format packed does.
func writeIndexedPackedTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "indexed.ptrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dtrace.NewIndexedPackedWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 6000; i++ {
		for _, a := range []uint32{0x10000 + 4*i, 0x400000 + 64*(i%512), 0x10F00000 + 8*(i%64)} {
			if err := w.WriteRef(a, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPolicyGridWithOPTAndPareto(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -policies LRU,FIFO,PLRU,OPT -pareto -workers 2")
	if err != nil {
		t.Fatalf("policy-grid sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "224-configuration sweep (LRU,FIFO,PLRU,OPT)") {
		t.Errorf("output missing the 4x56 grid title:\n%s", out)
	}
	if !strings.Contains(out, "OPT") || !strings.Contains(out, "PLRU") {
		t.Errorf("output missing policy rows:\n%s", out)
	}
	if !strings.Contains(out, "Pareto front") {
		t.Errorf("output missing the Pareto front:\n%s", out)
	}
}

func TestWritePolicyRejectsAddressOnlyTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -write-policy back")
	if err == nil {
		t.Fatalf("write-policy sweep over a kindless raw trace exited zero:\n%s", out)
	}
	if !strings.Contains(out, "no access kinds") {
		t.Errorf("error does not explain the missing kinds:\n%s", out)
	}
}

func TestWritePolicySweepOverDinTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	din := writeTestDin(t)
	out, err := runCachesweep(t, "-din "+din+" -write-policy back -policies LRU,PLRU -workers 2")
	if err != nil {
		t.Fatalf("write-back din sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "write-back") || !strings.Contains(out, "writebacks") {
		t.Errorf("output missing write-back accounting:\n%s", out)
	}
}

// TestFallbackReportedInManifest pins the observability satellite: a
// sweep with direct-fallback configurations must say so on stderr and
// record the count in the run manifest — never silently.
func TestFallbackReportedInManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	manifest := filepath.Join(t.TempDir(), "run.json")
	out, err := runCachesweep(t, "-trace "+trace+" -policy Random -manifest "+manifest)
	if err != nil {
		t.Fatalf("Random sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "fall back to per-config direct simulation") {
		t.Errorf("stderr does not warn about the fallback:\n%s", out)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"fallback_configs": "56"`) {
		t.Errorf("manifest does not record the fallback count:\n%s", raw)
	}
	if !strings.Contains(string(raw), "sweep.fallback_configs") {
		t.Errorf("manifest metrics missing the fallback gauge:\n%s", raw)
	}
}

func TestCrossValidatePassesExitZero(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -crossvalidate -workers 2")
	if err != nil {
		t.Fatalf("agreeing engines exited non-zero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "cross-validation OK") {
		t.Errorf("output does not report cross-validation OK:\n%s", out)
	}
}

func TestCrossValidateMismatchExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -crossvalidate -workers 2",
		"CACHESWEEP_FORCE_MISMATCH=1")
	if err == nil {
		t.Fatalf("mismatched engines exited zero:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("subprocess did not run: %v", err)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if !strings.Contains(out, "MISMATCH") {
		t.Errorf("output does not name the diverging configuration:\n%s", out)
	}
	if !strings.Contains(out, "cross-validation FAILED") {
		t.Errorf("output does not report the failure:\n%s", out)
	}
}

// TestHierarchySweepAndPareto drives the two-level flags end to end: a
// small L2 grid over the paper's L1 grid, with the hierarchy Pareto
// front printed at the bottom.
func TestHierarchySweepAndPareto(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -l2-sizes 32,64 -l2-assoc 4 -pareto -workers 2")
	if err != nil {
		t.Fatalf("hierarchy sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "112-hierarchy sweep (LRU, nine)") {
		t.Errorf("output missing the 56x2 hierarchy title:\n%s", out)
	}
	if !strings.Contains(out, "shared-L1 groups") {
		t.Errorf("plan line does not report shared-L1 grouping:\n%s", out)
	}
	if !strings.Contains(out, " + 32KB/") && !strings.Contains(out, " + 64KB/") {
		t.Errorf("output missing L1 + L2 hierarchy rows:\n%s", out)
	}
	if !strings.Contains(out, "Pareto front") {
		t.Errorf("output missing the hierarchy Pareto front:\n%s", out)
	}
}

// TestHierarchyWriteBackSweepOverDin exercises the kinded hierarchy path:
// write-back at both levels over a kind-carrying din trace.
func TestHierarchyWriteBackSweepOverDin(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	din := writeTestDin(t)
	out, err := runCachesweep(t, "-din "+din+" -write-policy back -l2-sizes 32 -hierarchy inclusive -workers 2")
	if err != nil {
		t.Fatalf("write-back inclusive hierarchy sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "inclusive, write-back") {
		t.Errorf("title missing content and write policy:\n%s", out)
	}
	if !strings.Contains(out, "mem wr bytes") {
		t.Errorf("output missing memory write traffic column:\n%s", out)
	}
}

// TestPlanDryRun pins the -plan contract: the resolved plan — including
// the hierarchy grouping — is printed and nothing is simulated.
func TestPlanDryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -l2-sizes 32,64 -plan")
	if err != nil {
		t.Fatalf("-plan dry run failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"sweep plan (dry run; nothing simulated)",
		"shared-L1 groups",
		"fused hierarchies",
		"max levels",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "hierarchy sweep (") {
		t.Errorf("-plan must not print sweep results:\n%s", out)
	}
	// Single-level -plan works too and reports the flat grid.
	out, err = runCachesweep(t, "-trace "+trace+" -policies LRU,OPT -plan")
	if err != nil {
		t.Fatalf("single-level -plan failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "sweep plan (dry run; nothing simulated)") {
		t.Errorf("single-level plan output missing summary:\n%s", out)
	}
	if !strings.Contains(out, "buffers trace") {
		t.Errorf("plan output missing OPT buffering field:\n%s", out)
	}
}

// TestIndexedPackedTraceSweeps: a packed trace carrying a PALMIDX1
// footer is an ordinary -trace input — every policy, OPT included, and
// hierarchy sweeps decode it serially like any other packed trace.
func TestIndexedPackedTraceSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeIndexedPackedTrace(t)
	out, err := runCachesweep(t, "-trace "+trace+" -policies LRU,OPT")
	if err != nil {
		t.Fatalf("indexed packed LRU+OPT sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "streaming packed references") || !strings.Contains(out, "112-configuration sweep (LRU,OPT)") {
		t.Errorf("output missing the packed banner or the LRU+OPT grid:\n%s", out)
	}
	out, err = runCachesweep(t, "-trace "+trace+" -l2-sizes 32")
	if err != nil {
		t.Fatalf("indexed packed hierarchy sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "56-hierarchy sweep") {
		t.Errorf("hierarchy output missing results:\n%s", out)
	}
}

// TestConflictingInputsExitUsage: -trace, -din, -desktop and -session
// each select the whole trace, so combining any two is bad usage (exit
// 2) with a message naming both flags, never a silent precedence rule.
func TestConflictingInputsExitUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	trace := writeTestTrace(t)
	din := writeTestDin(t)
	for _, tc := range []struct {
		args  string
		flags []string
	}{
		{"-trace " + trace + " -din " + din, []string{"-trace", "-din"}},
		{"-desktop -session 1", []string{"-desktop", "-session"}},
		{"-trace " + trace + " -desktop", []string{"-trace", "-desktop"}},
		{"-din " + din + " -session 2", []string{"-din", "-session"}},
	} {
		out, err := runCachesweep(t, tc.args)
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: want exit 2, got %v:\n%s", tc.args, err, out)
		}
		if code := ee.ExitCode(); code != 2 {
			t.Errorf("%s: exit code = %d, want 2 (usage)", tc.args, code)
		}
		for _, f := range tc.flags {
			if !strings.Contains(out, f) {
				t.Errorf("%s: message does not name %s:\n%s", tc.args, f, out)
			}
		}
		if !strings.Contains(out, "mutually exclusive") {
			t.Errorf("%s: message does not explain the conflict:\n%s", tc.args, out)
		}
	}
	// One input alone still sweeps.
	out, err := runCachesweep(t, "-din "+din)
	if err != nil {
		t.Fatalf("single -din sweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "56-configuration sweep (LRU)") {
		t.Errorf("single-input output missing results:\n%s", out)
	}
}

// TestSessionOutOfRangeExitsUsage: a -session outside the built-in 1-4
// is bad usage (exit 2) with a message naming the flag and its range,
// not the "need one of" message for a missing input.
func TestSessionOutOfRangeExitsUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep in -short mode")
	}
	for _, args := range []string{"-session 7", "-session -1", "-session 5 -workers 1"} {
		out, err := runCachesweep(t, args)
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: want exit 2, got %v:\n%s", args, err, out)
		}
		if code := ee.ExitCode(); code != 2 {
			t.Errorf("%s: exit code = %d, want 2 (usage)", args, code)
		}
		if !strings.Contains(out, "-session") || !strings.Contains(out, "1-4") {
			t.Errorf("%s: message does not name -session and its 1-4 range:\n%s", args, out)
		}
		if strings.Contains(out, "need one of") {
			t.Errorf("%s: reported a missing input although -session was given:\n%s", args, out)
		}
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	return len(ents)
}

// TestTraceFileSweepsCloseTheirFiles runs the sweep command in-process
// twenty times over one packed trace file (plain and -crossvalidate)
// and over a din file: every pass opens the file afresh, and the count
// of open descriptors must not grow.
func TestTraceFileSweepsCloseTheirFiles(t *testing.T) {
	ptrace := writeIndexedPackedTrace(t)
	din := writeTestDin(t)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()

	for _, c := range []config{
		{traceFile: ptrace, traceFormat: "auto"},
		{traceFile: ptrace, traceFormat: "packed", crossValidate: true},
		{dinFile: din},
	} {
		c.policy, c.algo, c.workers = "LRU", "auto", 2
		c.obsFlags = &obs.Flags{}
		before := openFDs(t)
		for i := 0; i < 20; i++ {
			if err := sweepMain(context.Background(), &c); err != nil {
				t.Fatalf("pass %d over %s%s: %v", i, c.traceFile, c.dinFile, err)
			}
		}
		if after := openFDs(t); after > before {
			t.Errorf("%s%s (crossvalidate %v): %d open descriptors after 20 sweeps, %d before",
				c.traceFile, c.dinFile, c.crossValidate, after, before)
		}
	}
}
