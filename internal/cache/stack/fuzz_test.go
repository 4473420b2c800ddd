package stack

import (
	"testing"

	"palmsim/internal/cache"
)

// fuzzTrace folds raw fuzz bytes into a mixed-region reference trace with
// deliberately low address entropy (so the fuzzer reaches hits, LRU
// reordering and evictions, not just cold misses): three bytes per
// reference — region/high bits and a 16-bit offset.
func fuzzTrace(data []byte) []uint32 {
	trace := make([]uint32, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		offset := uint32(data[i+1])<<8 | uint32(data[i+2])
		// Two high bits pick RAM low, RAM high, or the flash window; the
		// remaining bits extend the offset so large set counts see
		// conflicts too.
		switch data[i] >> 6 {
		case 0:
			trace = append(trace, offset)
		case 1:
			trace = append(trace, uint32(data[i]&0x3F)<<16|offset)
		default:
			trace = append(trace, 0x10000000+uint32(data[i]&0x1F)<<16|offset)
		}
	}
	return trace
}

// fuzzKinds derives one access kind per fuzzTrace reference from the
// region byte's spare bits, so the same input also drives write-back.
func fuzzKinds(data []byte) []uint8 {
	kinds := make([]uint8, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		kinds = append(kinds, (data[i]>>3)%3)
	}
	return kinds
}

// FuzzStackVsDirect is the stack-engine counterpart of the m68k
// differential fuzzers: any byte string becomes a trace, cut into
// chunks of a size the input also picks, and the single-pass engine
// must agree with per-config direct simulation on every counter of
// every paper configuration — address-only, and kinded on the
// write-back LRU grid, whose filter keeps every write.
func FuzzStackVsDirect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x10, 0x00, 0x00, 0x10, 0x40, 0x01, 0x00})
	f.Add([]byte{0x80, 0x12, 0x34, 0x00, 0x12, 0x34, 0x80, 0x12, 0x34, 0xC0, 0xFF, 0xFF})
	seed := make([]byte, 0, 3*256)
	for i := 0; i < 256; i++ {
		seed = append(seed, byte(i), byte(i*7), byte(i*13))
	}
	f.Add(seed)
	cfgs := cache.PaperSweep()
	wbCfgs := policySweep(cache.LRU, cache.WriteBack)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		trace, kinds := fuzzTrace(data), fuzzKinds(data)
		chunk := len(trace)
		if len(data) >= 2 {
			chunk = 1 + (int(data[0])<<8|int(data[1]))%(batchRefs+2)
		}
		check := func(name string, cfgs []cache.Config, kinds []uint8, want []cache.Result) {
			e, err := New(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			feedChunked(e, trace, kinds, max(chunk, 1))
			got := e.Results()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %v diverged over %d refs in chunks of %d:\n got %+v\nwant %+v",
						name, cfgs[i], len(trace), chunk, got[i], want[i])
				}
			}
		}
		want, err := cache.Sweep(cfgs, trace)
		if err != nil {
			t.Fatal(err)
		}
		check("address-only", cfgs, nil, want)
		check("kinded write-back", wbCfgs, kinds, directKindedSweep(t, wbCfgs, trace, kinds))
	})
}
