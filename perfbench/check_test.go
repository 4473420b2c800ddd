package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/exp"
	"palmsim/internal/sim"
	"palmsim/internal/sweep"
)

// smallTrace replays the first §3.2 workload, a few hundred thousand
// references, with kinds.
func smallTrace(t *testing.T) (*sim.Collection, *sim.Playback) {
	t.Helper()
	ctx := context.Background()
	col, err := sim.Collect(ctx, exp.ValidationWorkloads()[0])
	if err != nil {
		t.Fatal(err)
	}
	col.Release()
	opts := sim.DefaultReplayOptions()
	opts.CollectKinds = true
	pb, err := sim.Replay(ctx, col.Initial, col.Log, opts)
	if err != nil {
		t.Fatal(err)
	}
	pb.Release()
	return col, pb
}

// stopAfter is a source that ends early: it yields only the first n
// references of its trace.
type stopAfter struct {
	src sweep.Source
	n   int
}

func (s *stopAfter) NextChunk(buf []uint32) (int, error) {
	if len(buf) > s.n {
		buf = buf[:s.n]
	}
	n, err := s.src.NextChunk(buf)
	s.n -= n
	return n, err
}

func TestCheckerRejectsTruncatedSource(t *testing.T) {
	ctx := context.Background()
	_, pb := smallTrace(t)
	refs := uint64(len(pb.Trace))
	cfgs := cache.PaperSweep()
	packed, err := dtrace.PackTrace(pb.Trace, pb.TraceKinds)
	if err != nil {
		t.Fatal(err)
	}
	open := func() sweep.Source {
		src, _, err := exp.OpenTraceSource(bytes.NewReader(packed))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	full, err := sweep.Run(ctx, cfgs, open(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResults("full", cfgs, full, refs); err != nil {
		t.Fatalf("checker rejected a complete sweep: %v", err)
	}

	short, err := sweep.Run(ctx, cfgs, &stopAfter{src: open(), n: len(pb.Trace) - 1}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResults("truncated", cfgs, short, refs); err == nil {
		t.Fatal("checker accepted a sweep over a source truncated by one reference")
	}

	// An address-only trace handed to the kinded slice wrapper is
	// clamped to zero references without an error; the check must see it.
	hs := hierarchyGrid(cache.NonInclusive)[:2]
	clamped, err := sweep.RunTraceHierarchies(ctx, hs, pb.Trace, nil, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkHierResults("clamped", hs, clamped, refs); err == nil {
		t.Fatal("checker accepted a hierarchy sweep that saw no references")
	}
	streamed, err := sweep.RunHierarchies(ctx, hs, open(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkHierResults("streamed", hs, streamed, refs); err != nil {
		t.Fatalf("checker rejected a complete hierarchy sweep: %v", err)
	}
}

func TestCheckerRejectsOneMiss(t *testing.T) {
	ctx := context.Background()
	_, pb := smallTrace(t)
	for _, grid := range [][]cache.Config{
		paperGrid(cache.LRU, cache.WriteIgnore),
		paperGrid(cache.FIFO, cache.WriteBack),
		paperGrid(cache.OPT, cache.WriteIgnore),
	} {
		res, err := sweep.RunTraceKinded(ctx, grid, pb.Trace, pb.TraceKinds, sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := res[sampleIndex(3, 1, len(res))]
		if err := checkSample("sampled", got, pb.Trace, pb.TraceKinds); err != nil {
			t.Fatalf("checker rejected a correct %v result: %v", got.Config, err)
		}
		// One more miss, kept internally consistent so only the oracle
		// can tell.
		got.Misses++
		got.RAMMisses++
		if err := checkLevel("altered", got, uint64(len(pb.Trace))); err != nil {
			t.Fatalf("altered result should pass the invariants: %v", err)
		}
		if err := checkSample("altered", got, pb.Trace, pb.TraceKinds); err == nil {
			t.Fatalf("checker accepted a %v result altered by one miss", got.Config)
		}
	}

	hs := hierarchyGrid(cache.Inclusive)[:2]
	hres, err := sweep.RunTraceHierarchies(ctx, hs, pb.Trace, pb.TraceKinds, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkHierSample(ctx, "sampled", hres[1], pb.Trace, pb.TraceKinds); err != nil {
		t.Fatalf("checker rejected a correct hierarchy result: %v", err)
	}
	hres[1].Levels[1].Misses++
	hres[1].Levels[1].FlashMisses++
	if err := checkHierSample(ctx, "altered", hres[1], pb.Trace, pb.TraceKinds); err == nil {
		t.Fatal("checker accepted a hierarchy result altered by one L2 miss")
	}
}

func TestCheckerRejectsSplitAndRoundTripErrors(t *testing.T) {
	col, pb := smallTrace(t)
	res, err := sweep.RunTrace(context.Background(), cache.PaperSweep()[:1], pb.Trace, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := replayPrefix(col.Initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSplit("split", res[0], pb.Stats.Bus, prefix); err != nil {
		t.Fatalf("checker rejected the replay's own split: %v", err)
	}
	moved := res[0]
	moved.RAMRefs++
	moved.FlashRefs--
	if err := checkSplit("moved", moved, pb.Stats.Bus, prefix); err == nil {
		t.Fatal("checker accepted a split with one reference moved from flash to RAM")
	}

	packed, err := dtrace.PackTrace(pb.Trace, pb.TraceKinds)
	if err != nil {
		t.Fatal(err)
	}
	want := traceHash(pb.Trace, pb.TraceKinds)
	if err := checkRoundTrip("packed", packed, want); err != nil {
		t.Fatalf("checker rejected a faithful round trip: %v", err)
	}
	k := append([]uint8(nil), pb.TraceKinds...)
	k[len(k)/2] ^= 1
	if err := checkRoundTrip("kind flipped", packed, traceHash(pb.Trace, k)); err == nil {
		t.Fatal("checker accepted a round trip that lost one access kind")
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "pass", ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{Name: "sweep.lru", ID: 1, Parent: 0, Start: 0, End: 60 * ms},
		{Name: "dtrace.decode", ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{Name: checkSpan, ID: 3, Parent: 0, Start: 60 * ms, End: 80 * ms},
		{Name: "report", ID: 4, Parent: 0, Start: 80 * ms, End: 98 * ms},
	}
	self := selfTimes(spans)
	if self["sweep.lru"] != 40*ms || self["dtrace.decode"] != 20*ms || self["report"] != 18*ms {
		t.Fatalf("self times %v", self)
	}
	if _, ok := self[checkSpan]; ok {
		t.Fatal("check spans must not count as a layer")
	}
	if got, want := coverage(spans), 78.0/80.0; got != want {
		t.Fatalf("coverage %v, want %v", got, want)
	}
}

// TestBenchmarkListsEveryLayerMetric holds BENCHMARK.json's per-layer
// list to exactly the metrics a traced run reports.
func TestBenchmarkListsEveryLayerMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	ms0, ms1 := new(runtime.MemStats), new(runtime.MemStats)
	emitted := layerMetrics(nil, map[string]float64{}, ms0, ms1)
	emitted["trace.overhead_s"] = 0
	var want, got []string
	for k := range emitted {
		want = append(want, k+" "+layerUnit(k))
	}
	for _, m := range cfg.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, a traced run emits %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("BENCHMARK.json per-layer metric %q, traced run emits %q", got[i], want[i])
		}
	}
}
