// Benchmarks, one per paper table/figure plus the DESIGN.md ablations.
// Run with: go test -bench=. -benchmem
//
//	BenchmarkSessionReplay      Table 1   — full activity-log playback
//	BenchmarkHackOverhead       Figure 3  — the instrumented logging path
//	BenchmarkCacheSweep         Figures 5/6 — 56-config sweep, direct engine
//	BenchmarkStackSweep         Figures 5/6 — same sweep, single-pass engine
//	BenchmarkDesktopSweep       Figure 7  — desktop-trace sweep
//	BenchmarkProfilingDispatch  ablation: ROM TrapDispatcher vs native
//	BenchmarkReplacementPolicy  ablation: LRU vs FIFO vs Random
//	BenchmarkEmulatorMIPS       raw table-interpreter speed
//	BenchmarkBlockMIPS          superblock threaded-code engine speed
package palmsim_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"palmsim"
	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/gremlin"
	"palmsim/internal/obs"
	"palmsim/internal/sweep"
	"palmsim/internal/user"
)

// benchSession is a compact but representative workload.
func benchSession() palmsim.Session {
	return palmsim.Session{Name: "bench", Seed: 77, Script: func(b *user.Builder) {
		b.IdleSeconds(1)
		b.WriteMemo("benchmark memo entry")
		b.IdleSeconds(5)
		b.PlayPuzzle(6)
		b.IdleSeconds(2)
		b.BrowseAddresses(2)
		b.Notify(1)
	}}
}

var (
	benchOnce  sync.Once
	benchCol   *palmsim.Collection
	benchTrace []uint32
	benchErr   error
)

// benchSetup collects the session and one replay trace, shared by the
// cache benchmarks and the sweep determinism test.
func benchSetup(tb testing.TB) (*palmsim.Collection, []uint32) {
	benchOnce.Do(func() {
		benchCol, benchErr = palmsim.Collect(context.Background(), benchSession())
		if benchErr != nil {
			return
		}
		var pb *palmsim.Playback
		pb, benchErr = palmsim.Replay(context.Background(), benchCol.Initial, benchCol.Log, palmsim.DefaultReplayOptions())
		if benchErr == nil {
			benchTrace = pb.Trace
		}
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchCol, benchTrace
}

// sweepWorkerCounts are the serial baseline and the all-cores engine, the
// two points every sweep benchmark reports.
func sweepWorkerCounts() []struct {
	name    string
	workers int
} {
	return []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), 0},
	}
}

// BenchmarkSessionReplay measures full activity-log playback (the Table 1
// pipeline minus collection): machine boot, state restore, synchronized
// event injection, doze skipping.
func BenchmarkSessionReplay(b *testing.B) {
	col, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb, err := palmsim.Replay(context.Background(), col.Initial, col.Log, palmsim.ReplayOptions{Profiling: true})
		if err != nil {
			b.Fatal(err)
		}
		if pb.Stats.Machine.Instructions == 0 {
			b.Fatal("empty replay")
		}
	}
}

// BenchmarkSessionReplayWithTrace adds reference-trace collection, the
// configuration the cache case study uses.
func BenchmarkSessionReplayWithTrace(b *testing.B) {
	col, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb, err := palmsim.Replay(context.Background(), col.Initial, col.Log, palmsim.DefaultReplayOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(pb.Trace) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkHackOverhead measures the Figure 3 logging path end to end: a
// collection run with all five hacks installed, normalized per logged
// record.
func BenchmarkHackOverhead(b *testing.B) {
	b.ReportAllocs()
	var records int
	for i := 0; i < b.N; i++ {
		col, err := palmsim.Collect(context.Background(), benchSession())
		if err != nil {
			b.Fatal(err)
		}
		records += col.Log.Len()
	}
	b.ReportMetric(float64(records)/float64(b.N), "records/op")
}

// BenchmarkCacheSweep runs the 56-configuration Figures 5/6 sweep over a
// real replay trace through the internal/sweep engine with per-config
// direct simulation (the pre-stack baseline), serial versus one worker
// per core.
func BenchmarkCacheSweep(b *testing.B) {
	_, trace := benchSetup(b)
	cfgs := cache.PaperSweep()
	for _, wc := range sweepWorkerCounts() {
		b.Run(wc.name, func(b *testing.B) {
			b.SetBytes(int64(len(trace) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := sweep.Options{Workers: wc.workers, Engine: sweep.EngineDirect}
				if _, err := sweep.RunTrace(context.Background(), cfgs, trace, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStackSweep is the same Figures 5/6 sweep through the
// single-pass stack-distance engine — the headline speedup over
// BenchmarkCacheSweep is the number EXPERIMENTS.md records.
func BenchmarkStackSweep(b *testing.B) {
	_, trace := benchSetup(b)
	cfgs := cache.PaperSweep()
	for _, wc := range sweepWorkerCounts() {
		b.Run(wc.name, func(b *testing.B) {
			b.SetBytes(int64(len(trace) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := sweep.Options{Workers: wc.workers, Engine: sweep.EngineStack}
				if _, err := sweep.RunTrace(context.Background(), cfgs, trace, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchHierarchies is the L1×L2 grid for the hierarchy benchmark: two
// L1 geometries, each paired with four L2 candidates, non-inclusive.
// Eight hierarchies per L1 group is enough for the shared-L1 engine's
// advantage — simulate each L1 once, fan its filtered miss stream to
// every candidate L2 — to dominate the naive per-pair cost.
func benchHierarchies() []cache.Hierarchy {
	var hs []cache.Hierarchy
	for _, l1 := range []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1, Policy: cache.LRU},
		{SizeBytes: 4 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU},
	} {
		for _, kb := range []int{16, 32, 64, 128} {
			for _, ways := range []int{2, 8} {
				l2 := cache.Config{SizeBytes: kb << 10, LineBytes: 32, Ways: ways, Policy: cache.LRU}
				hs = append(hs, cache.Hierarchy{Levels: []cache.Config{l1, l2}})
			}
		}
	}
	return hs
}

// BenchmarkHierarchySweep measures the two-level L1→L2 sweep: "shared"
// is the stack engine's shared-L1 plan (one L1 simulation per group,
// miss stream fanned out), "naive" the per-pair fused baseline the
// EXPERIMENTS.md speedup protocol compares against. Serial workers on
// both sides so the ratio isolates the plan, not the parallelism.
func BenchmarkHierarchySweep(b *testing.B) {
	_, trace := benchSetup(b)
	hs := benchHierarchies()
	for _, eng := range []struct {
		name   string
		engine sweep.Engine
	}{
		{"shared", sweep.EngineStack},
		{"naive", sweep.EngineDirect},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.SetBytes(int64(len(trace) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := sweep.Options{Workers: 1, Engine: eng.engine}
				src := sweep.NewSliceSource(trace)
				if _, err := sweep.RunHierarchies(context.Background(), hs, src, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCacheSingle measures one cache configuration (1 KB, 16 B,
// direct-mapped) in isolation.
func BenchmarkCacheSingle(b *testing.B) {
	_, trace := benchSetup(b)
	cfg := cache.Config{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1, Policy: cache.LRU}
	b.SetBytes(int64(len(trace) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Simulate(cfg, trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesktopSweep is the Figure 7 sweep over the synthetic desktop
// trace, serial versus one worker per core.
func BenchmarkDesktopSweep(b *testing.B) {
	cfg := dtrace.DefaultConfig()
	cfg.Refs = 500_000
	trace := dtrace.Generate(cfg)
	cfgs := cache.PaperSweep()
	for _, wc := range sweepWorkerCounts() {
		b.Run(wc.name, func(b *testing.B) {
			b.SetBytes(int64(len(trace) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sweep.RunTrace(context.Background(), cfgs, trace, sweep.Options{Workers: wc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDesktopSweepStreaming runs the same sweep with the trace
// generated chunk by chunk (dtrace.Stream): the memory high-water mark
// stays O(workers · chunk) instead of O(trace).
func BenchmarkDesktopSweepStreaming(b *testing.B) {
	cfg := dtrace.DefaultConfig()
	cfg.Refs = 500_000
	cfgs := cache.PaperSweep()
	b.SetBytes(int64(cfg.Refs * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(context.Background(), cfgs, dtrace.NewStream(cfg), sweep.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptSweep is the 56-configuration paper grid under Belady's
// MIN: the per-configuration direct OPT simulator versus the single-pass
// per-line-size families (what EngineStack routes OPT configs to). Both
// run serially so the ratio is the algorithmic speedup EXPERIMENTS.md
// records; the backward next-use annotation is part of each measured
// iteration for both engines.
func BenchmarkOptSweep(b *testing.B) {
	_, trace := benchSetup(b)
	var cfgs []cache.Config
	for _, c := range cache.PaperSweep() {
		c.Policy = cache.OPT
		cfgs = append(cfgs, c)
	}
	for _, eng := range []struct {
		name string
		eng  sweep.Engine
	}{{"direct", sweep.EngineDirect}, {"family", sweep.EngineStack}} {
		b.Run(eng.name, func(b *testing.B) {
			b.SetBytes(int64(len(trace) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := sweep.Options{Workers: 1, Engine: eng.eng}
				if _, err := sweep.RunTrace(context.Background(), cfgs, trace, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPolicySweep is the same grid under the PR 9 single-pass
// families: FIFO and tree-PLRU, stack engine versus per-configuration
// direct simulation, serial. The family-vs-direct ratios are the
// headline policy-sweep speedups EXPERIMENTS.md records.
func BenchmarkPolicySweep(b *testing.B) {
	_, trace := benchSetup(b)
	for _, pol := range []cache.Policy{cache.FIFO, cache.PLRU} {
		var cfgs []cache.Config
		for _, c := range cache.PaperSweep() {
			c.Policy = pol
			cfgs = append(cfgs, c)
		}
		for _, eng := range []struct {
			name string
			eng  sweep.Engine
		}{{"direct", sweep.EngineDirect}, {"family", sweep.EngineStack}} {
			b.Run(pol.String()+"-"+eng.name, func(b *testing.B) {
				b.SetBytes(int64(len(trace) * 4))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opts := sweep.Options{Workers: 1, Engine: eng.eng}
					if _, err := sweep.RunTrace(context.Background(), cfgs, trace, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkProfilingDispatch quantifies DESIGN.md ablation 1: the cost of
// running the real ROM TrapDispatcher (Profiling on, complete traces)
// versus POSE's native dispatch shortcut.
func BenchmarkProfilingDispatch(b *testing.B) {
	col, _ := benchSetup(b)
	for _, profiling := range []bool{true, false} {
		name := "native"
		if profiling {
			name = "rom-dispatcher"
		}
		b.Run(name, func(b *testing.B) {
			var instr uint64
			for i := 0; i < b.N; i++ {
				pb, err := palmsim.Replay(context.Background(), col.Initial, col.Log, palmsim.ReplayOptions{Profiling: profiling})
				if err != nil {
					b.Fatal(err)
				}
				instr = pb.Stats.Machine.Instructions
			}
			b.ReportMetric(float64(instr), "emulated-instructions")
		})
	}
}

// BenchmarkReplacementPolicy is DESIGN.md ablation 4: LRU (the paper's
// choice) versus FIFO and Random at the 8 KB / 32 B / 4-way point.
func BenchmarkReplacementPolicy(b *testing.B) {
	_, trace := benchSetup(b)
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4, Policy: pol}
			var miss float64
			b.SetBytes(int64(len(trace) * 4))
			for i := 0; i < b.N; i++ {
				r, err := cache.Simulate(cfg, trace)
				if err != nil {
					b.Fatal(err)
				}
				miss = r.MissRate()
			}
			b.ReportMetric(miss*100, "miss-%")
		})
	}
}

// mipsReplay is the shared body of the engine-speed benchmarks: full
// replays under one dispatch engine, reported as emulated instructions
// per second of host time.
func mipsReplay(b *testing.B, dispatch string) {
	col, _ := benchSetup(b)
	mipsReplayOpts(b, col, palmsim.ReplayOptions{Profiling: true, Dispatch: dispatch}, false)
}

// mipsReplayOpts is the fully-parameterized engine-speed loop. With
// release set, each replay's machine image is returned to emu's pool, so
// every iteration after the first builds its machine on a recycled image —
// the warm path batch drivers run on. Without it every machine pays the
// cold 20 MB allocation, keeping the series comparable with pre-pool
// baselines.
func mipsReplayOpts(b *testing.B, col *palmsim.Collection, opt palmsim.ReplayOptions, release bool) {
	b.ResetTimer()
	var emulated uint64
	for i := 0; i < b.N; i++ {
		pb, err := palmsim.Replay(context.Background(), col.Initial, col.Log, opt)
		if err != nil {
			b.Fatal(err)
		}
		emulated += pb.Stats.Machine.Instructions
		if release {
			pb.Release()
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(emulated)/sec/1e6, "emulated-MIPS")
	}
}

// BenchmarkEmulatorMIPS measures the raw table interpreter: emulated
// instructions per second of host time across a full replay. Pinned to
// the table engine so the series stays comparable with the pre-block
// baselines; BenchmarkBlockMIPS is the superblock engine on the same
// workload, and their ratio is the block speedup EXPERIMENTS.md records.
func BenchmarkEmulatorMIPS(b *testing.B) { mipsReplay(b, "table") }

// BenchmarkBlockMIPS measures the unspecialized superblock threaded-code
// engine on the same replay workload as BenchmarkEmulatorMIPS.
func BenchmarkBlockMIPS(b *testing.B) { mipsReplay(b, "block") }

// BenchmarkSpecMIPS measures the specialized superblock engine with block
// chaining — the default dispatch since PR 8 — on the same workload; its
// ratio over BenchmarkBlockMIPS is the specialization speedup
// EXPERIMENTS.md records.
func BenchmarkSpecMIPS(b *testing.B) { mipsReplay(b, "spec") }

// BenchmarkSpecMIPSWarm is BenchmarkSpecMIPS with every replay's machine
// image recycled through emu's pool: iterations after the first build
// their machine on a reclaimed image instead of allocating 20 MB. The
// delta against BenchmarkSpecMIPS is the machine-image-reuse rung of the
// PR 8 attribution.
func BenchmarkSpecMIPSWarm(b *testing.B) {
	col, _ := benchSetup(b)
	mipsReplayOpts(b, col, palmsim.ReplayOptions{Profiling: true, Dispatch: "spec"}, true)
}

var (
	busyOnce sync.Once
	busyCol  *palmsim.Collection
	busyErr  error
)

// busySetup collects the PR 8 A/B workload: a dense 1,500-event gremlin
// storm with short think times, so the replay spends its time executing
// code rather than doze-skipping — the session that makes engine speed
// visible.
func busySetup(tb testing.TB) *palmsim.Collection {
	busyOnce.Do(func() {
		busyCol, busyErr = palmsim.Collect(context.Background(),
			gremlin.Session(gremlin.Config{Seed: 20260808, Events: 1500, MaxThinkTicks: 20}))
	})
	if busyErr != nil {
		tb.Fatal(busyErr)
	}
	return busyCol
}

// BenchmarkBusyMIPS is the per-rung engine comparison on the busy session:
// block is the PR 7 baseline, spec-nochain isolates per-block handler
// specialization, spec adds successor chaining. All three run warm
// (pooled images) so the rungs differ only in the engine knob under test.
func BenchmarkBusyMIPS(b *testing.B) {
	col := busySetup(b)
	engines := []struct {
		name, dispatch string
		nochain        bool
	}{
		{"block", "block", false},
		{"spec-nochain", "spec", true},
		{"spec", "spec", false},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			mipsReplayOpts(b, col,
				palmsim.ReplayOptions{Profiling: true, Dispatch: eng.dispatch, NoChain: eng.nochain}, true)
		})
	}
}

// BenchmarkEmulatorMIPSObserved is the same replay with a live metrics
// registry bound (the -metrics path). Most obs values are polled func
// metrics, so the delta against BenchmarkEmulatorMIPS is the whole
// metrics-enabled overhead; EXPERIMENTS.md records the measured numbers.
// The metrics-disabled overhead is guarded separately: BenchmarkEmulatorMIPS
// itself is gated against the committed baseline by CI's bench-smoke job.
func BenchmarkEmulatorMIPSObserved(b *testing.B) {
	col, _ := benchSetup(b)
	reg := obs.NewRegistry()
	b.ResetTimer()
	var emulated uint64
	for i := 0; i < b.N; i++ {
		pb, err := palmsim.Replay(context.Background(), col.Initial, col.Log,
			palmsim.ReplayOptions{Profiling: true, Dispatch: "table", Obs: reg})
		if err != nil {
			b.Fatal(err)
		}
		emulated += pb.Stats.Machine.Instructions
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(emulated)/sec/1e6, "emulated-MIPS")
	}
}
