package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"palmsim/internal/cache"
	"palmsim/internal/cache/opt"
	"palmsim/internal/cache/stack"
	"palmsim/internal/simerr"
)

// mixedPolicySweep is a configuration set exercising every replacement
// policy, so checkpointing round-trips LRU order state, FIFO queues and
// the Random policy's PRNG state.
func mixedPolicySweep() []cache.Config {
	cfgs := cache.PaperSweep()[:8]
	for _, pol := range []cache.Policy{cache.FIFO, cache.Random} {
		cfgs = append(cfgs,
			cache.Config{SizeBytes: 4096, LineBytes: 16, Ways: 2, Policy: pol},
			cache.Config{SizeBytes: 8192, LineBytes: 32, Ways: 4, Policy: pol},
		)
	}
	return cfgs
}

// interruptRun sweeps trace with checkpointing on and cancels after
// `after` chunks, leaving a sidecar behind. It fails the test unless the
// run ended in cancellation.
func interruptRun(t *testing.T, path string, cfgs []cache.Config, trace []uint32, after, workers, chunkRefs int, eng Engine) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &countingSource{inner: NewSliceSource(trace), after: after, cancel: cancel}
	_, err := Run(ctx, cfgs, src, Options{
		Workers: workers, ChunkRefs: chunkRefs, Engine: eng,
		CheckpointPath: path, CheckpointEveryChunks: 4,
	})
	if !simerr.IsCanceled(err) {
		t.Fatalf("interrupted run: err = %v, want cancellation", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no sidecar after cancellation: %v", err)
	}
}

// countingSource wraps a Source and fires cancel after `after` chunks.
type countingSource struct {
	inner  Source
	after  int
	cancel context.CancelFunc
	chunks int
}

func (s *countingSource) NextChunk(buf []uint32) (int, error) {
	s.chunks++
	if s.chunks == s.after {
		s.cancel()
	}
	return s.inner.NextChunk(buf)
}

// TestCheckpointResumeBitIdentical is the golden gate: interrupt a
// checkpointed sweep partway, resume it from the sidecar on a fresh
// source, and demand results identical — field for field — to an
// uninterrupted run. Covers both engines, serial and parallel, and all
// three replacement policies (the Random policy makes this a PRNG-state
// round-trip test too).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	trace := fixedTrace(40_000)
	cfgs := mixedPolicySweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineDirect, EngineStack} {
		for _, workers := range []int{1, 4} {
			for _, after := range []int{2, 7, 23} {
				path := filepath.Join(t.TempDir(), "sweep.ckpt")
				interruptRun(t, path, cfgs, trace, after, workers, 1024, eng)

				// Resume on a fresh source — different worker count than
				// the writer, which the format explicitly permits.
				got, err := Run(context.Background(), cfgs, NewSliceSource(trace), Options{
					Workers: 5 - workers, ChunkRefs: 1024, Engine: eng,
					CheckpointPath: path, CheckpointEveryChunks: 4, Resume: true,
				})
				if err != nil {
					t.Fatalf("%s workers=%d after=%d: resume: %v", eng, workers, after, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s workers=%d after=%d: %v diverged after resume: got %+v want %+v",
							eng, workers, after, cfgs[i], got[i], want[i])
					}
				}
				// A completed sweep removes its sidecar.
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("%s workers=%d after=%d: sidecar survived a completed sweep", eng, workers, after)
				}
			}
		}
	}
}

// TestResumeWithoutSidecarStartsFresh pins that Resume with no sidecar
// on disk is a clean cold start, not an error.
func TestResumeWithoutSidecarStartsFresh(t *testing.T) {
	trace := fixedTrace(10_000)
	cfgs := cache.PaperSweep()[:4]
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "missing.ckpt")
	got, err := RunTrace(context.Background(), cfgs, trace, Options{
		Workers: 2, ChunkRefs: 512, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%v diverged on fresh start with Resume set", cfgs[i])
		}
	}
}

// TestResumeRejectsForeignSidecar: a sidecar written by a different
// configuration set (or engine) must fail with ErrBadCheckpoint, never
// silently produce numbers.
func TestResumeRejectsForeignSidecar(t *testing.T) {
	trace := fixedTrace(20_000)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	interruptRun(t, path, cache.PaperSweep()[:6], trace, 3, 2, 512, EngineStack)

	// Different configuration set.
	_, err := RunTrace(context.Background(), cache.PaperSweep()[:8], trace, Options{
		Workers: 2, ChunkRefs: 512, Engine: EngineStack,
		CheckpointPath: path, Resume: true,
	})
	if !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("foreign config set: err = %v, want ErrBadCheckpoint", err)
	}
	// Different engine.
	_, err = RunTrace(context.Background(), cache.PaperSweep()[:6], trace, Options{
		Workers: 2, ChunkRefs: 512, Engine: EngineDirect,
		CheckpointPath: path, Resume: true,
	})
	if !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("foreign engine: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestResumeRejectsCorruptSidecar flips bytes in a valid sidecar and
// checks the checksum gate catches it; same for a truncated file and a
// bad magic.
func TestResumeRejectsCorruptSidecar(t *testing.T) {
	trace := fixedTrace(20_000)
	cfgs := cache.PaperSweep()[:6]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	interruptRun(t, path, cfgs, trace, 3, 2, 512, EngineStack)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resume := func() error {
		_, err := RunTrace(context.Background(), cfgs, trace, Options{
			Workers: 2, ChunkRefs: 512, Engine: EngineStack,
			CheckpointPath: path, Resume: true,
		})
		return err
	}

	// Flipped byte in the body: checksum mismatch.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(); !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("corrupt body: err = %v, want ErrBadCheckpoint", err)
	}

	// Truncated file.
	if err := os.WriteFile(path, good[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(); !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("truncated: err = %v, want ErrBadCheckpoint", err)
	}

	// Wrong magic.
	bad = append([]byte(nil), good...)
	copy(bad, "NOTACKPT")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(); !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("bad magic: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestResumeRejectsShortTrace: resuming against a trace shorter than the
// checkpoint's consumed prefix is an ErrBadCheckpoint (the sidecar
// belongs to a different, longer trace).
func TestResumeRejectsShortTrace(t *testing.T) {
	trace := fixedTrace(30_000)
	cfgs := cache.PaperSweep()[:6]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	// Interrupt late enough that >5000 refs were consumed (after chunk 20
	// at 1024 refs/chunk the producer has consumed ~20k refs).
	interruptRun(t, path, cfgs, trace, 20, 1, 1024, EngineStack)

	_, err := RunTrace(context.Background(), cfgs, trace[:5_000], Options{
		Workers: 1, ChunkRefs: 1024, Engine: EngineStack,
		CheckpointPath: path, Resume: true,
	})
	if !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("short trace: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestPeriodicCheckpointSurvivesCrash simulates a crash between periodic
// saves: the source errors out (no cancellation, so no final save), and
// the sweep resumes from the last periodic sidecar bit-identically.
func TestPeriodicCheckpointSurvivesCrash(t *testing.T) {
	trace := fixedTrace(40_000)
	cfgs := mixedPolicySweep()
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// "Crash": the source fails hard partway through. Periodic saves at
	// every 4 chunks have left a sidecar; the error path does not write a
	// final one.
	src := &crashSource{inner: NewSliceSource(trace), after: 11}
	_, err = Run(context.Background(), cfgs, src, Options{
		Workers: 3, ChunkRefs: 1024, CheckpointPath: path, CheckpointEveryChunks: 4,
	})
	if err == nil || simerr.IsCanceled(err) {
		t.Fatalf("crash run: err = %v, want a hard source error", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no periodic sidecar after crash: %v", err)
	}

	got, err := Run(context.Background(), cfgs, NewSliceSource(trace), Options{
		Workers: 2, ChunkRefs: 1024, CheckpointPath: path, CheckpointEveryChunks: 4, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume after crash: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%v diverged after crash-resume: got %+v want %+v", cfgs[i], got[i], want[i])
		}
	}
}

// crashSource fails hard after delivering a set number of chunks.
type crashSource struct {
	inner  Source
	after  int
	chunks int
}

func (s *crashSource) NextChunk(buf []uint32) (int, error) {
	if s.chunks >= s.after {
		return 0, errors.New("synthetic I/O failure")
	}
	s.chunks++
	return s.inner.NextChunk(buf)
}

// kindedCountingSource wraps a KindedSliceSource and fires cancel after
// `after` kinded chunks — the kinded-mode counterpart of countingSource.
type kindedCountingSource struct {
	inner  *KindedSliceSource
	after  int
	cancel context.CancelFunc
	chunks int
}

func (s *kindedCountingSource) NextChunk(buf []uint32) (int, error) {
	return s.inner.NextChunk(buf)
}

func (s *kindedCountingSource) NextChunkKinded(buf []uint32, kinds []uint8) (int, error) {
	s.chunks++
	if s.chunks == s.after {
		s.cancel()
	}
	return s.inner.NextChunkKinded(buf, kinds)
}

// kindedCheckpointSweep exercises the PR 9 state: PLRU trees, FIFO
// round-robin pointers, and write-back dirty/wmax tracking all have to
// survive the sidecar round trip.
func kindedCheckpointSweep() []cache.Config {
	var cfgs []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU} {
		for _, wp := range []cache.WritePolicy{cache.WriteThrough, cache.WriteBack} {
			cfgs = append(cfgs,
				cache.Config{SizeBytes: 2048, LineBytes: 16, Ways: 2, Policy: pol, Write: wp},
				cache.Config{SizeBytes: 8192, LineBytes: 32, Ways: 4, Policy: pol, Write: wp},
			)
		}
	}
	return cfgs
}

// TestCheckpointResumeKindedWritePolicies: interrupt a kinded write-policy
// sweep mid-trace, resume from the sidecar, and demand results identical
// to the direct per-configuration oracle — including the write and
// writeback counters, which live in the checkpointed unit state.
func TestCheckpointResumeKindedWritePolicies(t *testing.T) {
	trace, kinds := kindedFixedTrace(40_000)
	cfgs := kindedCheckpointSweep()
	want := directKindedOracle(t, cfgs, trace, kinds)
	for _, eng := range []Engine{EngineStack, EngineDirect} {
		for _, after := range []int{3, 9} {
			name := fmt.Sprintf("%s/after=%d", eng, after)
			path := filepath.Join(t.TempDir(), "kinded.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			src := &kindedCountingSource{inner: NewKindedSliceSource(trace, kinds), after: after, cancel: cancel}
			_, err := Run(ctx, cfgs, src, Options{
				Workers: 3, ChunkRefs: 1024, Engine: eng,
				CheckpointPath: path, CheckpointEveryChunks: 2,
			})
			cancel()
			if !simerr.IsCanceled(err) {
				t.Fatalf("%s: interrupted run: err = %v, want cancellation", name, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("%s: no sidecar after cancellation: %v", name, err)
			}

			got, err := Run(context.Background(), cfgs, NewKindedSliceSource(trace, kinds), Options{
				Workers: 2, ChunkRefs: 1024, Engine: eng,
				CheckpointPath: path, CheckpointEveryChunks: 2, Resume: true,
			})
			if err != nil {
				t.Fatalf("%s: resume: %v", name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: %v diverged after resume: got %+v want %+v",
						name, cfgs[i], got[i], want[i])
				}
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s: sidecar survived a completed sweep", name)
			}
		}
	}
}

// TestCheckpointResumeOptSweep: an OPT sweep materializes its source
// before the checkpointer exists, so a cancelling source cannot
// interrupt it mid-run. Instead, build the production plan directly,
// feed it a prefix, write a sidecar through the production checkpointer,
// and let Run resume from it — the resumed sweep must match an
// uninterrupted one in every counter.
func TestCheckpointResumeOptSweep(t *testing.T) {
	trace := fixedTrace(30_000)
	cfgs := []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2, Policy: cache.OPT},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4, Policy: cache.OPT},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4, Policy: cache.LRU},
		{SizeBytes: 2 << 10, LineBytes: 16, Ways: 2, Policy: cache.PLRU},
	}
	want := directKindedOracle(t, cfgs, trace, nil)

	for _, eng := range []Engine{EngineStack, EngineDirect} {
		anns, err := opt.AnnotateAll(trace, optLineSizes(cfgs))
		if err != nil {
			t.Fatal(err)
		}
		p, err := build(cfgs, eng, anns)
		if err != nil {
			t.Fatal(err)
		}
		const prefix = 13_312 // 13 chunks of 1024
		for lo := 0; lo < prefix; lo += 1024 {
			for _, u := range p.units {
				u.AccessAll(trace[lo : lo+1024])
			}
		}
		path := filepath.Join(t.TempDir(), "opt.ckpt")
		ck, err := newCheckpointer(path, 1, p.units, configHash(cfgs, eng))
		if err != nil {
			t.Fatal(err)
		}
		ck.consumed(prefix)
		if err := ck.save(); err != nil {
			t.Fatal(err)
		}

		got, err := RunTrace(context.Background(), cfgs, trace, Options{
			Workers: 2, ChunkRefs: 1024, Engine: eng,
			CheckpointPath: path, Resume: true,
		})
		if err != nil {
			t.Fatalf("%s: resume: %v", eng, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %v diverged after OPT resume: got %+v want %+v",
					eng, cfgs[i], got[i], want[i])
			}
		}
	}
}

// TestResumeRejectsForeignPolicySidecar: a sidecar is fingerprinted by
// replacement policy AND write policy — resuming the same geometries
// under a different policy of either kind must fail with
// ErrBadCheckpoint, never blend the two runs' numbers.
func TestResumeRejectsForeignPolicySidecar(t *testing.T) {
	trace, kinds := kindedFixedTrace(20_000)
	geoms := []cache.Config{
		{SizeBytes: 2048, LineBytes: 16, Ways: 2},
		{SizeBytes: 8192, LineBytes: 32, Ways: 4},
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	interruptRun(t, path, geoms, trace, 3, 2, 512, EngineStack)

	resume := func(cfgs []cache.Config) error {
		_, err := Run(context.Background(), cfgs, NewKindedSliceSource(trace, kinds), Options{
			Workers: 2, ChunkRefs: 512, Engine: EngineStack,
			CheckpointPath: path, Resume: true,
		})
		return err
	}

	// Same geometries, different replacement policy.
	foreign := make([]cache.Config, len(geoms))
	copy(foreign, geoms)
	for i := range foreign {
		foreign[i].Policy = cache.PLRU
	}
	if err := resume(foreign); !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("foreign replacement policy: err = %v, want ErrBadCheckpoint", err)
	}

	// Same geometries and replacement policy, different write policy.
	copy(foreign, geoms)
	for i := range foreign {
		foreign[i].Write = cache.WriteBack
	}
	if err := resume(foreign); !errors.Is(err, simerr.ErrBadCheckpoint) {
		t.Errorf("foreign write policy: err = %v, want ErrBadCheckpoint", err)
	}

	// The original configuration set still resumes cleanly.
	if err := resume(geoms); err != nil {
		t.Errorf("original config set failed to resume: %v", err)
	}
}

// loopTrace is a repeat-rich kinded trace: runs of flash fetches, a few
// per line, interleaved with reads and writes near a moving RAM data
// pointer, so most references are same-line repeats or A-B-A returns —
// the references a line-size group's stage-1 filter drops, carrying
// its last-line state across chunk boundaries.
func loopTrace(n int) ([]uint32, []uint8) {
	rng := rand.New(rand.NewSource(77))
	trace := make([]uint32, n)
	kinds := make([]uint8, n)
	pc, data := uint32(0x10000000), uint32(0x2000)
	for i := range trace {
		if i%2 == 0 {
			pc += 2
			if rng.Intn(30) == 0 {
				pc = 0x10000000 + uint32(rng.Intn(1<<14))&^1
			}
			trace[i], kinds[i] = pc, cache.KindFetch
			continue
		}
		if rng.Intn(10) == 0 {
			data = uint32(rng.Intn(1 << 15))
		}
		trace[i], kinds[i] = data+uint32(rng.Intn(8)), cache.KindRead
		if rng.Intn(3) == 0 {
			kinds[i] = cache.KindWrite
		}
	}
	return trace, kinds
}

// TestCheckpointResumeGroupedLRU interrupts the paper's LRU grid — two
// line-size units behind their stage-1 filters — mid-sweep at workers 1,
// 2 and 4, resumes each sidecar at workers 1, 2 and 4, and demands the
// direct oracle's results, address-only and kinded write-back.
func TestCheckpointResumeGroupedLRU(t *testing.T) {
	trace, kinds := loopTrace(30_000)
	if info, err := Plan(Options{}, cache.PaperSweep()); err != nil || info.Units != 2 {
		t.Fatalf("paper grid plans %d units (err %v), want 2 line-size groups", info.Units, err)
	}
	for _, wp := range []cache.WritePolicy{cache.WriteIgnore, cache.WriteBack} {
		cfgs := cache.PaperSweep()
		for i := range cfgs {
			cfgs[i].Write = wp
		}
		kinded := wp != cache.WriteIgnore
		var k []uint8
		if kinded {
			k = kinds
		}
		want := directKindedOracle(t, cfgs, trace, k)
		source := func(after int, cancel context.CancelFunc) Source {
			if kinded {
				return &kindedCountingSource{inner: NewKindedSliceSource(trace, kinds), after: after, cancel: cancel}
			}
			return &countingSource{inner: NewSliceSource(trace), after: after, cancel: cancel}
		}
		for _, wrote := range []int{1, 2, 4} {
			for _, resumed := range []int{1, 2, 4} {
				name := fmt.Sprintf("%v workers %d→%d", wp, wrote, resumed)
				path := filepath.Join(t.TempDir(), "lru.ckpt")
				ctx, cancel := context.WithCancel(context.Background())
				_, err := Run(ctx, cfgs, source(11, cancel), Options{
					Workers: wrote, ChunkRefs: 999, CheckpointPath: path, CheckpointEveryChunks: 4,
				})
				cancel()
				if !simerr.IsCanceled(err) {
					t.Fatalf("%s: interrupted run: err = %v, want cancellation", name, err)
				}
				if _, err := os.Stat(path); err != nil {
					t.Fatalf("%s: no sidecar after cancellation: %v", name, err)
				}
				got, err := Run(context.Background(), cfgs, source(-1, nil), Options{
					Workers: resumed, ChunkRefs: 999, CheckpointPath: path, Resume: true,
				})
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: %v diverged after resume: got %+v want %+v", name, cfgs[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// blobUnit is a stand-in unit whose checkpoint blob is fixed bytes, for
// writing sidecars in layouts the engine no longer produces.
type blobUnit []byte

func (blobUnit) AccessAll([]uint32)            {}
func (u blobUnit) AppendState(b []byte) []byte { return append(b, u...) }
func (blobUnit) RestoreState([]byte) error     { return nil }

// TestResumeRejectsPerRefinementSidecar: sidecars written before LRU
// refinements were grouped per line size hold one blob per refinement
// (recency lists, two depth histograms, a write counter). Resuming one
// must fail with ErrBadCheckpoint, never panic or resume — both when the
// unit counts differ (the paper grid: 20 blobs for 2 units) and when
// they coincide (one geometry per line size).
func TestResumeRejectsPerRefinementSidecar(t *testing.T) {
	trace := fixedTrace(5_000)
	for _, cfgs := range [][]cache.Config{
		cache.PaperSweep(),
		{{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2}, {SizeBytes: 1 << 10, LineBytes: 32, Ways: 2}},
	} {
		e, err := stack.New(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		var units []unit
		for _, r := range e.Refinements() {
			units = append(units, make(blobUnit, 4*r.Sets()*r.Depth()+2*8*(r.Depth()+1)+8))
		}
		path := filepath.Join(t.TempDir(), "old.ckpt")
		ck, err := newCheckpointer(path, 1, units, configHash(cfgs, EngineStack))
		if err != nil {
			t.Fatal(err)
		}
		ck.consumed(1000)
		if err := ck.save(); err != nil {
			t.Fatal(err)
		}
		_, err = RunTrace(context.Background(), cfgs, trace, Options{
			Workers: 2, Engine: EngineStack, CheckpointPath: path, Resume: true,
		})
		if !errors.Is(err, simerr.ErrBadCheckpoint) {
			t.Errorf("%d-config grid, %d-refinement sidecar: err = %v, want ErrBadCheckpoint", len(cfgs), len(units), err)
		}
	}
}
