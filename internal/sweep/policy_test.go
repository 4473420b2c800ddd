// Policy-oracle differential suite: every (replacement policy, write
// policy, engine, worker count) combination the sweep accepts must
// produce results bit-identical to a per-configuration direct simulation
// of the same trace — the single-pass engines earn their speed only if
// they are indistinguishable from the obvious implementation.
package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/cache/opt"
	"palmsim/internal/dtrace"
	"palmsim/internal/obs"
)

// kindedFixedTrace is a deterministic trace with access kinds: flash-side
// fetches, RAM reads over a wide region, and writes concentrated on a hot
// region so write-back dirty lines actually collide and evict.
func kindedFixedTrace(n int) ([]uint32, []uint8) {
	rng := rand.New(rand.NewSource(1105))
	trace := make([]uint32, n)
	kinds := make([]uint8, n)
	for i := range trace {
		switch rng.Intn(5) {
		case 0, 1:
			trace[i] = 0x10000000 + uint32(rng.Intn(1<<16))
			kinds[i] = cache.KindFetch
		case 2, 3:
			trace[i] = uint32(rng.Intn(1 << 16))
			kinds[i] = cache.KindRead
		default:
			trace[i] = 0x8000 + uint32(rng.Intn(1<<14))
			kinds[i] = cache.KindWrite
		}
	}
	return trace, kinds
}

// diffGeometries is a small geometry spread: direct-mapped through
// 8-way, both paper line sizes, sized so the traces above overflow them.
func diffGeometries() []cache.Config {
	return []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1},
		{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4},
		{SizeBytes: 8 << 10, LineBytes: 32, Ways: 8},
	}
}

// policyWriteGrid crosses the geometries with every replacement policy
// and every write policy: 4 × 5 × 3 = 60 configurations.
func policyWriteGrid() []cache.Config {
	var cfgs []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU, cache.Random, cache.OPT} {
		for _, wp := range []cache.WritePolicy{cache.WriteIgnore, cache.WriteThrough, cache.WriteBack} {
			for _, g := range diffGeometries() {
				g.Policy, g.Write = pol, wp
				cfgs = append(cfgs, g)
			}
		}
	}
	return cfgs
}

// directKindedOracle simulates every configuration independently with the
// reference implementations — cache.Cache for the stack policies,
// opt.DirectCache for Belady — exactly as a hand-written loop would.
// kinds may be nil for an address-only trace.
func directKindedOracle(t testing.TB, cfgs []cache.Config, trace []uint32, kinds []uint8) []cache.Result {
	t.Helper()
	anns, err := opt.AnnotateAll(trace, optLineSizes(cfgs))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]cache.Result, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Policy == cache.OPT {
			d, err := opt.NewDirect(cfg, anns[cfg.LineBytes])
			if err != nil {
				t.Fatal(err)
			}
			if kinds == nil {
				d.AccessAll(trace)
			} else {
				d.AccessAllKinded(trace, kinds)
			}
			out[i] = d.Result()
			continue
		}
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if kinds == nil {
			c.AccessAll(trace)
		} else {
			c.AccessAllKinded(trace, kinds)
		}
		out[i] = c.Result()
	}
	return out
}

func compareResults(t *testing.T, name string, cfgs []cache.Config, got, want []cache.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: %v diverged:\n got %+v\nwant %+v", name, cfgs[i], got[i], want[i])
		}
	}
}

// TestPolicyEngineDifferential is the tentpole gate: the full
// policy × write-policy grid through every engine, worker count and
// chunk size must match the direct per-configuration oracle bit for bit.
func TestPolicyEngineDifferential(t *testing.T) {
	trace, kinds := kindedFixedTrace(60_000)
	cfgs := policyWriteGrid()
	want := directKindedOracle(t, cfgs, trace, kinds)
	for _, eng := range []Engine{EngineAuto, EngineStack, EngineDirect} {
		for _, workers := range []int{1, 4} {
			for _, chunk := range []int{0, 777} {
				name := fmt.Sprintf("%s/workers=%d/chunk=%d", eng, workers, chunk)
				got, err := RunTraceKinded(context.Background(), cfgs, trace, kinds,
					Options{Workers: workers, ChunkRefs: chunk, Engine: eng})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				compareResults(t, name, cfgs, got, want)
			}
		}
	}
}

// TestDesktopTracePolicyDifferential runs the address-only policies over
// the synthetic desktop workload, both materialized and streaming — the
// streaming case drives OPT's trace-buffering path through a real
// chunked source rather than a slice.
func TestDesktopTracePolicyDifferential(t *testing.T) {
	gen := dtrace.DefaultConfig()
	gen.Refs = 80_000
	trace := dtrace.Generate(gen)
	var cfgs []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU, cache.OPT} {
		for _, g := range diffGeometries() {
			g.Policy = pol
			cfgs = append(cfgs, g)
		}
	}
	want := directKindedOracle(t, cfgs, trace, nil)
	for _, workers := range []int{1, 4} {
		got, err := RunTrace(context.Background(), cfgs, trace,
			Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("slice/workers=%d", workers), cfgs, got, want)

		got, err = Run(context.Background(), cfgs, dtrace.NewStream(gen),
			Options{Workers: workers, ChunkRefs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("stream/workers=%d", workers), cfgs, got, want)
	}
}

// TestOptLowerBoundThroughSweep is the optimality property at the sweep
// level: on the same trace and geometry, Belady's MIN never misses more
// than any realizable policy the sweep offers.
func TestOptLowerBoundThroughSweep(t *testing.T) {
	trace := fixedTrace(80_000)
	pols := []cache.Policy{cache.OPT, cache.LRU, cache.FIFO, cache.PLRU, cache.Random}
	for _, g := range diffGeometries() {
		cfgs := make([]cache.Config, len(pols))
		for i, pol := range pols {
			cfgs[i] = g
			cfgs[i].Policy = pol
		}
		res, err := RunTrace(context.Background(), cfgs, trace, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res); i++ {
			if res[0].Misses > res[i].Misses {
				t.Errorf("%v: OPT missed %d times, %v only %d — MIN is not minimal",
					g, res[0].Misses, pols[i], res[i].Misses)
			}
		}
	}
}

// TestKindedSweepRejectsAddressOnlySource: a write-policy sweep over a
// source without access kinds must fail up front with an error naming
// the missing kinds — not silently treat every reference as a read.
func TestKindedSweepRejectsAddressOnlySource(t *testing.T) {
	cfgs := []cache.Config{{SizeBytes: 4096, LineBytes: 16, Ways: 2, Write: cache.WriteBack}}
	_, err := Run(context.Background(), cfgs, NewSliceSource(fixedTrace(4096)), Options{Workers: 1})
	if err == nil {
		t.Fatal("kinded sweep accepted an address-only source")
	}
	if !strings.Contains(err.Error(), "no access kinds") {
		t.Errorf("error does not name the missing kinds: %v", err)
	}
}

// TestPlanReportsFallbackAndGauges pins the no-silent-fallback contract:
// Plan exposes how many configurations the stack engine hands to direct
// simulation, and a run publishes the same numbers as obs gauges.
func TestPlanReportsFallbackAndGauges(t *testing.T) {
	g := diffGeometries()
	cfgs := []cache.Config{
		g[0], g[1], // LRU: classic stack refinements
		{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2, Policy: cache.FIFO},   // family
		{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2, Policy: cache.PLRU},   // family
		{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2, Policy: cache.Random}, // fallback
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4, Policy: cache.Random}, // fallback
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4, Policy: cache.OPT},    // opt family
	}
	info, err := Plan(Options{}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if info.Engine != EngineStack {
		t.Errorf("auto plan chose %v", info.Engine)
	}
	if info.FallbackConfigs != 2 || info.FamilyConfigs != 2 || info.OptConfigs != 1 {
		t.Errorf("plan = %+v, want fallback 2, family 2, opt 1", info)
	}
	if info.NeedsKinds {
		t.Error("address-only grid flagged as needing kinds")
	}
	if !info.BuffersTrace {
		t.Error("OPT plan does not buffer the trace")
	}

	// A direct-engine plan has no fallback by definition.
	dinfo, err := Plan(Options{Engine: EngineDirect}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if dinfo.FallbackConfigs != 0 || dinfo.FamilyConfigs != 0 {
		t.Errorf("direct plan = %+v, want no families or fallback", dinfo)
	}

	// The running sweep publishes the plan as gauges.
	reg := obs.NewRegistry()
	if _, err := RunTrace(context.Background(), cfgs, fixedTrace(20_000),
		Options{Workers: 2, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"sweep.fallback_configs": 2,
		"sweep.family_configs":   2,
		"sweep.opt_configs":      1,
	} {
		if got := reg.Gauge(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if err := reg.Err(); err != nil {
		t.Fatal(err)
	}
}

// FuzzPolicyVsDirect derives a trace, access kinds, a policy and a write
// policy from fuzz input and demands the parallel sweep engines agree
// with the direct oracle on every counter. Crashes and divergences both
// count as failures.
func FuzzPolicyVsDirect(f *testing.F) {
	f.Add([]byte("palm os cache"), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 250, 251, 252}, uint8(1), uint8(1), uint8(2))
	f.Add([]byte("write-back dirty line eviction"), uint8(2), uint8(2), uint8(3))
	f.Add([]byte{0xff, 0xfe, 0x00, 0x10, 0x80}, uint8(3), uint8(1), uint8(1))
	f.Add([]byte("belady next use tie break"), uint8(4), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, polB, wpB, workersB uint8) {
		if len(data) == 0 {
			return
		}
		pols := []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU, cache.Random, cache.OPT}
		wps := []cache.WritePolicy{cache.WriteIgnore, cache.WriteThrough, cache.WriteBack}
		pol := pols[int(polB)%len(pols)]
		wp := wps[int(wpB)%len(wps)]

		// Stretch the input into a few hundred references concentrated in
		// a small region, so tiny inputs still cause evictions.
		n := 64 * len(data)
		if n > 8192 {
			n = 8192
		}
		trace := make([]uint32, n)
		kinds := make([]uint8, n)
		h := uint32(2166136261)
		for i := 0; i < n; i++ {
			h = (h ^ uint32(data[i%len(data)]) ^ uint32(i)) * 16777619
			addr := h % (1 << 13)
			if h&0x70000 == 0 {
				addr |= 0x10000000 // occasional flash-side reference
			}
			trace[i] = addr
			kinds[i] = uint8(h>>24) % 3
		}

		cfgs := []cache.Config{
			{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2, Policy: pol, Write: wp},
			{SizeBytes: 2 << 10, LineBytes: 32, Ways: 4, Policy: pol, Write: wp},
			{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1, Policy: pol, Write: wp},
		}
		// An all-WriteIgnore set sweeps address-only (kinds unused, Writes
		// stays zero), so the oracle must run address-only too.
		oracleKinds := kinds
		if wp == cache.WriteIgnore {
			oracleKinds = nil
		}
		want := directKindedOracle(t, cfgs, trace, oracleKinds)
		workers := 1 + int(workersB)%4
		for _, eng := range []Engine{EngineAuto, EngineDirect} {
			got, err := RunTraceKinded(context.Background(), cfgs, trace, kinds,
				Options{Workers: workers, ChunkRefs: 64, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s %v policy=%v write=%v: got %+v want %+v",
						eng, cfgs[i], pol, wp, got[i], want[i])
				}
			}
		}
	})
}
