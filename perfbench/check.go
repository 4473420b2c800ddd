package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"

	"palmsim/internal/bus"
	"palmsim/internal/cache"
	"palmsim/internal/cache/opt"
	"palmsim/internal/dtrace"
	"palmsim/internal/emu"
	"palmsim/internal/hotsync"
	"palmsim/internal/sweep"
)

// The output checks use only oracles computed in the same run and
// invariants that hold for any seed: no golden numbers, no paper-shape
// thresholds. Each returns nil or an error naming what disagreed.

// checkResults holds for every configuration swept over a trace of refs
// references: each configuration saw every reference exactly once, and
// every reference is either RAM or flash. It catches a truncated or
// clamped source (Accesses below refs) as well as a duplicated one.
func checkResults(family string, cfgs []cache.Config, rs []cache.Result, refs uint64) error {
	if len(rs) != len(cfgs) {
		return fmt.Errorf("%s: %d results for %d configurations", family, len(rs), len(cfgs))
	}
	for i, r := range rs {
		if r.Config != cfgs[i] {
			return fmt.Errorf("%s: result %d is for %v, want %v", family, i, r.Config, cfgs[i])
		}
		if err := checkLevel(family, r, refs); err != nil {
			return err
		}
		if r.RAMRefs != rs[0].RAMRefs {
			return fmt.Errorf("%s: %v counts %d RAM refs, %v counts %d", family, r.Config, r.RAMRefs, rs[0].Config, rs[0].RAMRefs)
		}
	}
	return nil
}

func checkLevel(family string, r cache.Result, refs uint64) error {
	switch {
	case r.Accesses != refs:
		return fmt.Errorf("%s: %v saw %d accesses, trace has %d refs", family, r.Config, r.Accesses, refs)
	case r.RAMRefs+r.FlashRefs != r.Accesses:
		return fmt.Errorf("%s: %v RAM %d + flash %d != accesses %d", family, r.Config, r.RAMRefs, r.FlashRefs, r.Accesses)
	case r.Misses > r.Accesses || r.RAMMisses+r.FlashMisses != r.Misses:
		return fmt.Errorf("%s: %v miss counters inconsistent: %d misses (%d RAM + %d flash) over %d accesses",
			family, r.Config, r.Misses, r.RAMMisses, r.FlashMisses, r.Accesses)
	}
	return nil
}

// checkHierResults is checkResults for hierarchy sweeps: the first level
// sees the whole trace, and every level splits its accesses into RAM and
// flash.
func checkHierResults(family string, hs []cache.Hierarchy, rs []cache.HierarchyResult, refs uint64) error {
	if len(rs) != len(hs) {
		return fmt.Errorf("%s: %d results for %d hierarchies", family, len(rs), len(hs))
	}
	for i, r := range rs {
		if !reflect.DeepEqual(r.Hierarchy, hs[i]) || len(r.Levels) != len(hs[i].Levels) {
			return fmt.Errorf("%s: result %d is for %v, want %v", family, i, r.Hierarchy, hs[i])
		}
		if err := checkLevel(family+" L1", r.L1(), refs); err != nil {
			return err
		}
		for _, lr := range r.Levels[1:] {
			if lr.RAMRefs+lr.FlashRefs != lr.Accesses {
				return fmt.Errorf("%s: %v lower level RAM %d + flash %d != accesses %d",
					family, r.Hierarchy, lr.RAMRefs, lr.FlashRefs, lr.Accesses)
			}
		}
	}
	return nil
}

// checkSplit holds the swept RAM/flash split against the replay's own
// bus counters. The replay attaches its trace sink after boot and state
// restore, so the bus counts that prefix as well; prefix replays it on a
// separate machine configured as sim.Replay configures its own.
func checkSplit(name string, r cache.Result, replay, prefix bus.Stats) error {
	if r.RAMRefs+prefix.RAMRefs != replay.RAMRefs || r.FlashRefs+prefix.FlashRefs != replay.FlashRefs {
		return fmt.Errorf("%s: swept split RAM %d flash %d + untraced prefix RAM %d flash %d != replay bus RAM %d flash %d",
			name, r.RAMRefs, r.FlashRefs, prefix.RAMRefs, prefix.FlashRefs, replay.RAMRefs, replay.FlashRefs)
	}
	return nil
}

// replayPrefix returns the bus counters of sim.Replay's untraced prefix:
// boot plus restore of the initial state, with hacks out.
func replayPrefix(initial *hotsync.State) (bus.Stats, error) {
	m, err := emu.New(emu.Options{Profiling: true, TraceNative: true})
	if err != nil {
		return bus.Stats{}, err
	}
	defer m.Release()
	if err := m.Boot(); err != nil {
		return bus.Stats{}, err
	}
	if err := hotsync.Restore(m, initial); err != nil {
		return bus.Stats{}, err
	}
	return m.Bus.Stats, nil
}

// traceHash digests a kinded trace, so a round trip can be compared
// without holding two copies of it in memory.
func traceHash(t []uint32, k []uint8) [sha256.Size]byte {
	h := sha256.New()
	writeU32(h, nil, t)
	fmt.Fprintf(h, "|%d|", len(k))
	h.Write(k)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// writeU32 feeds v to h as little-endian bytes, 16 Ki values at a time
// through buf, and returns buf for reuse.
func writeU32(h hash.Hash, buf []byte, v []uint32) []byte {
	for len(v) > 0 {
		n := min(len(v), 1<<14)
		buf = buf[:0]
		for _, x := range v[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, x)
		}
		h.Write(buf)
		v = v[n:]
	}
	return buf
}

// checkRoundTrip holds dtrace.UnpackTrace(packed) to exactly the trace
// whose traceHash is want.
func checkRoundTrip(name string, packed []byte, want [sha256.Size]byte) error {
	t, k, err := dtrace.UnpackTrace(packed)
	if err != nil {
		return fmt.Errorf("%s: unpack: %w", name, err)
	}
	if traceHash(t, k) != want {
		return fmt.Errorf("%s: UnpackTrace(PackTrace(t, k)) differs from (t, k): %d refs unpacked", name, len(t))
	}
	return nil
}

// directResult simulates one configuration with the reference
// simulators: cache.New for LRU/FIFO/PLRU/Random, opt.DirectCache for
// OPT. Kinds are fed only when the configuration has a write policy, as
// the sweep does.
func directResult(cfg cache.Config, t []uint32, k []uint8) (cache.Result, error) {
	kinded := cfg.Write != cache.WriteIgnore
	if cfg.Policy == cache.OPT {
		ann, err := opt.Annotate(t, cfg.LineBytes)
		if err != nil {
			return cache.Result{}, err
		}
		d, err := opt.NewDirect(cfg, ann)
		if err != nil {
			return cache.Result{}, err
		}
		if kinded {
			d.AccessAllKinded(t, k)
		} else {
			d.AccessAll(t)
		}
		return d.Result(), nil
	}
	c, err := cache.New(cfg)
	if err != nil {
		return cache.Result{}, err
	}
	if kinded {
		c.AccessAllKinded(t, k)
	} else {
		c.AccessAll(t)
	}
	return c.Result(), nil
}

// checkSample holds one swept result to the direct simulation of its
// configuration over the same trace.
func checkSample(family string, got cache.Result, t []uint32, k []uint8) error {
	want, err := directResult(got.Config, t, k)
	if err != nil {
		return fmt.Errorf("%s: direct %v: %w", family, got.Config, err)
	}
	if got != want {
		return fmt.Errorf("%s: %v swept %+v, direct simulation %+v", family, got.Config, got, want)
	}
	return nil
}

// checkHierSample holds one swept hierarchy result to the same
// hierarchy run alone on the direct engine (the composed reference).
func checkHierSample(ctx context.Context, family string, got cache.HierarchyResult, t []uint32, k []uint8) error {
	want, err := sweep.RunHierarchies(ctx, []cache.Hierarchy{got.Hierarchy},
		sweep.NewKindedSliceSource(t, k), sweep.Options{Engine: sweep.EngineDirect, Workers: 1})
	if err != nil {
		return fmt.Errorf("%s: direct %v: %w", family, got.Hierarchy, err)
	}
	if !reflect.DeepEqual(got, want[0]) {
		return fmt.Errorf("%s: %v swept %+v, direct engine %+v", family, got.Hierarchy, got, want[0])
	}
	return nil
}

// sampleIndex rotates the sampled configuration with the pass number,
// so successive passes check different members of a family.
func sampleIndex(pass, salt, n int) int { return (pass*7 + salt*13) % n }

// sameDigest reports a digest mismatch between a pass and the reference.
func sameDigest(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("sim_digest %x differs from the reference pass's %x", got, want)
	}
	return nil
}
