package palmsim_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"palmsim"
	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/exp"
	"palmsim/internal/sweep"
)

// TestPackedTraceCompressionOnSessionTrace is the acceptance gate for the
// packed trace format: on a real collect+replay session trace (the same
// one the benchmarks use), the packed encoding must be at least 3x
// smaller than the raw PALMTRC1 serialization, and the streaming source
// must hand the sweep engine exactly the original addresses.
func TestPackedTraceCompressionOnSessionTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and replays a session")
	}
	_, trace := benchSetup(t)
	if len(trace) == 0 {
		t.Fatal("empty session trace")
	}
	raw := exp.MarshalTrace(trace)
	packed, err := dtrace.PackTrace(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(raw)) / float64(len(packed))
	if ratio < 3 {
		t.Errorf("packed session trace only %.2fx smaller than raw (%d vs %d bytes), want >=3x",
			ratio, len(packed), len(raw))
	}
	t.Logf("session trace: %d refs, raw %d bytes, packed %d bytes (%.2fx)",
		len(trace), len(raw), len(packed), ratio)

	src, err := dtrace.NewPackedSource(bytes.NewReader(packed))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 64<<10)
	i := 0
	for {
		n, err := src.NextChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for _, a := range buf[:n] {
			if i >= len(trace) || a != trace[i] {
				t.Fatalf("decoded ref %d = %#x, want %#x", i, a, trace[i])
			}
			i++
		}
	}
	if i != len(trace) {
		t.Fatalf("decoded %d refs, want %d", i, len(trace))
	}
}

// TestSweepIdenticalAcrossTraceFormats is the cross-format differential:
// one session replay, written to disk the way cmd/palmsim writes it
// (PALMTRC1 .trace, indexed PALMPKD1 .ptrace with kinds and tick marks,
// Dinero .din), must sweep to exactly the in-memory trace's 56-config
// result table through every file reader cmd/cachesweep uses. The
// kind-carrying formats must also agree on a write-back sweep.
func TestSweepIdenticalAcrossTraceFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and replays a session")
	}
	col, _ := benchSetup(t)
	opt := palmsim.DefaultReplayOptions()
	opt.CollectKinds = true
	opt.CollectTicks = true
	pb, err := palmsim.Replay(context.Background(), col.Initial, col.Log, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Trace) == 0 || len(pb.TraceKinds) != len(pb.Trace) {
		t.Fatalf("replay produced %d refs with %d kinds", len(pb.Trace), len(pb.TraceKinds))
	}

	dir := t.TempDir()
	packed, err := dtrace.PackTraceIndexed(pb.Trace, pb.TraceKinds, pb.TraceTicks)
	if err != nil {
		t.Fatal(err)
	}
	din, err := exp.MarshalDinero(pb.Trace, pb.TraceKinds)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"session.trace":  exp.MarshalTrace(pb.Trace),
		"session.ptrace": packed,
		"session.din":    din,
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func(name string) sweep.Source {
		t.Helper()
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if filepath.Ext(name) == ".din" {
			return exp.NewDineroSource(f)
		}
		src, _, err := exp.OpenTraceSource(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return src
	}
	check := func(label string, cfgs []cache.Config, want []cache.Result, names ...string) {
		t.Helper()
		for _, name := range names {
			got, err := sweep.Run(context.Background(), cfgs, open(name), sweep.Options{Workers: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", label, name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d results, want %d", label, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s %s: %v diverged from the in-memory trace:\n got %+v\nwant %+v",
						label, name, cfgs[i], got[i], want[i])
				}
			}
		}
	}

	cfgs := cache.PaperSweep()
	want, err := sweep.RunTrace(context.Background(), cfgs, pb.Trace, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("LRU", cfgs, want, "session.trace", "session.ptrace", "session.din")

	wb := cache.PaperSweep()
	for i := range wb {
		wb[i].Write = cache.WriteBack
	}
	wantWB, err := sweep.Run(context.Background(), wb,
		sweep.NewKindedSliceSource(pb.Trace, pb.TraceKinds), sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("write-back", wb, wantWB, "session.ptrace", "session.din")
}
