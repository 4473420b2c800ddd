package stack

import (
	"math/rand"
	"testing"

	"palmsim/internal/bus"
	"palmsim/internal/cache"
)

// localTrace is a repeat-rich kinded trace shaped like an emulator's:
// runs of instruction fetches through flash (several per line) with
// occasional branches, interleaved with reads and writes near a RAM
// data pointer, plus RAM/flash aliases of the data line (same set in
// every geometry). Same-line repeats and A-B-A returns — what the
// stage-1 filter drops — dominate, unlike in the uniform mixedTrace.
func localTrace(n int, seed int64) ([]uint32, []uint8) {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]uint32, 0, n)
	kinds := make([]uint8, 0, n)
	pc := uint32(bus.ROMBase)
	data := uint32(0x4000)
	for len(trace) < n {
		switch r := rng.Intn(10); {
		case r < 5:
			pc += 2
			if rng.Intn(40) == 0 {
				pc = bus.ROMBase + uint32(rng.Intn(1<<15))&^1
			}
			trace = append(trace, pc)
			kinds = append(kinds, cache.KindFetch)
		case r < 9:
			if rng.Intn(8) == 0 {
				data = uint32(rng.Intn(1 << 14))
			}
			k := cache.KindRead
			if rng.Intn(3) == 0 {
				k = cache.KindWrite
			}
			trace = append(trace, data+uint32(rng.Intn(16)))
			kinds = append(kinds, k)
		default:
			// 64 KiB apart: the same set in every geometry up to 64 KiB
			// per way, a different line everywhere.
			alias := data + uint32(1+rng.Intn(3))<<16
			if rng.Intn(2) == 0 {
				alias = bus.ROMBase + data
			}
			trace = append(trace, alias)
			kinds = append(kinds, cache.KindRead)
		}
	}
	return trace, kinds
}

// feedChunked advances every unit of e over trace in chunks of the
// given size, kinded when kinds is non-nil.
func feedChunked(e *Engine, trace []uint32, kinds []uint8, chunk int) {
	for lo := 0; lo < len(trace); lo += chunk {
		hi := min(lo+chunk, len(trace))
		for _, u := range e.Units() {
			if kinds != nil {
				u.AccessAllKinded(trace[lo:hi], kinds[lo:hi])
			} else {
				u.AccessAll(trace[lo:hi])
			}
		}
	}
}

// survivors counts the records a group's first refinement consumed.
func survivors(g *Group) uint64 {
	r := g.refinements[0]
	var n uint64
	for d := range r.histRAM {
		n += r.histRAM[d] + r.histFlash[d]
	}
	return n
}

// TestFilterDropsOnlyProvableHits drives the filter directly: a repeat
// is dropped, an A-B-A return is dropped only when A and B differ
// inside the minimum set mask, and under write-back every write
// survives.
func TestFilterDropsOnlyProvableHits(t *testing.T) {
	// 8 sets (mask 7) and 64 sets (mask 63) of 16 B lines.
	cfgs := []cache.Config{
		{SizeBytes: 128, LineBytes: 16, Ways: 1},
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1},
	}
	const a, apart, collide = 0x0, 0x10, 0x80 // lines 0, 1 and 8
	for _, tc := range []struct {
		name  string
		refs  []uint32
		kinds []uint8
		wb    bool
		want  int
	}{
		{"repeat", []uint32{a, a + 4, a + 8}, nil, false, 1},
		{"A-B-A apart", []uint32{a, apart, a, apart, a}, nil, false, 2},
		{"A-B-A colliding", []uint32{a, collide, a, collide, a}, nil, false, 5},
		{"A-B-A region alias", []uint32{a, bus.ROMBase + a, a}, nil, false, 3},
		{"writes, no write-back", []uint32{a, a, apart, a}, []uint8{cache.KindWrite, cache.KindWrite, cache.KindRead, cache.KindWrite}, false, 2},
		{"writes under write-back", []uint32{a, a, apart, a, a}, []uint8{cache.KindWrite, cache.KindWrite, cache.KindRead, cache.KindWrite, cache.KindRead}, true, 4},
	} {
		cs := append([]cache.Config(nil), cfgs...)
		if tc.wb {
			cs[1].Write = cache.WriteBack
		}
		e, err := New(cs)
		if err != nil {
			t.Fatal(err)
		}
		g := e.groups[0]
		if got := len(g.records(tc.refs, tc.kinds)); got != tc.want {
			t.Errorf("%s: %d records survive, want %d", tc.name, got, tc.want)
		}
	}
}

// TestGroupedSweepMatchesDirect is the differential gate for the shared
// filter: repeat-rich traces through the LRU, FIFO and PLRU paper grids,
// address-only and kinded under every write policy, in chunk schedules
// that cut repeats and A-B-A triples at every offset — including
// chunks longer than one stage-1 batch — must match per-config direct
// simulation in every counter.
func TestGroupedSweepMatchesDirect(t *testing.T) {
	const n = 30_000
	trace, kinds := localTrace(n, 4)
	chunks := []int{1, 2, 3, batchRefs + 1, 4096, n}
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU} {
		cfgs := policySweep(pol, cache.WriteIgnore)
		want, err := cache.Sweep(cfgs, trace)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range chunks {
			e, err := New(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			feedChunked(e, trace, nil, chunk)
			assertIdentical(t, pol.String()+" chunked", e.Results(), want)
		}
		for _, wp := range []cache.WritePolicy{cache.WriteThrough, cache.WriteBack} {
			cfgs := policySweep(pol, wp)
			want := directKindedSweep(t, cfgs, trace, kinds)
			for _, chunk := range chunks {
				e, err := New(cfgs)
				if err != nil {
					t.Fatal(err)
				}
				feedChunked(e, trace, kinds, chunk)
				assertIdentical(t, pol.String()+"/"+wp.String()+" chunked", e.Results(), want)
			}
		}
	}
	// The trace must actually exercise the filter.
	e, err := New(cache.PaperSweep())
	if err != nil {
		t.Fatal(err)
	}
	feedChunked(e, trace, nil, n)
	for _, g := range e.groups {
		if s := survivors(g); s > n/2 {
			t.Errorf("%dB group: %d of %d references survive the filter; the trace is too weak a test", g.lineBytes, s, n)
		}
	}
}

// TestCollidingAlternationNotAbsorbed pins the A-B-A rule on a grid
// whose smallest geometry maps A and B to one set: a direct-mapped
// 8-set cache misses on every reference of A B A B ..., while the 64-set
// cache hits on every return, and RAM and flash aliases of one line
// alternate in one set without ever merging.
func TestCollidingAlternationNotAbsorbed(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 128, LineBytes: 16, Ways: 1},
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1},
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2},
	}
	var trace []uint32
	for i := 0; i < 500; i++ {
		trace = append(trace, 0x0, 0x80, 0x4, 0x84) // lines 0 and 8
	}
	for i := 0; i < 500; i++ {
		trace = append(trace, 0x200, bus.ROMBase+0x200) // one set, two regions
	}
	want, err := cache.Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(cfgs, trace)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "colliding A-B-A", got, want)
	if got[0].Misses < 2000 {
		t.Errorf("8-set direct-mapped cache: %d misses, want every A-B-A return to miss", got[0].Misses)
	}
	if got[0].FlashMisses != 500 || got[0].FlashRefs != 500 {
		t.Errorf("flash alias: %d misses of %d refs, want 500 of 500", got[0].FlashMisses, got[0].FlashRefs)
	}
}

// TestStateRoundTripAtEveryCut checkpoints small LRU, FIFO and PLRU
// grids (one write-back member each, so writes survive the filter) at
// every cut point of a repeat-rich prefix, restores each unit's blob
// into a fresh engine, finishes the trace there, and requires the
// uninterrupted results: the filter's last-line state must survive the
// round trip exactly, or a colliding A-B-A return right after the cut
// would be dropped.
func TestStateRoundTripAtEveryCut(t *testing.T) {
	trace, kinds := localTrace(3_000, 11)
	var cfgs []cache.Config
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.PLRU} {
		cfgs = append(cfgs,
			cache.Config{SizeBytes: 128, LineBytes: 16, Ways: 1, Policy: pol},
			cache.Config{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2, Policy: pol, Write: cache.WriteBack},
			cache.Config{SizeBytes: 512, LineBytes: 32, Ways: 2, Policy: pol},
		)
	}
	want := directKindedSweep(t, cfgs, trace, kinds)
	type stateful interface {
		AppendState([]byte) []byte
		RestoreState([]byte) error
	}
	for cut := 0; cut <= 400; cut++ {
		first, err := New(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := New(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		fu, ru := first.Units(), resumed.Units()
		for i, u := range fu {
			u.AccessAllKinded(trace[:cut], kinds[:cut])
			if err := ru[i].(stateful).RestoreState(u.(stateful).AppendState(nil)); err != nil {
				t.Fatal(err)
			}
			ru[i].AccessAllKinded(trace[cut:], kinds[cut:])
		}
		got := resumed.Results()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %d: %v diverged after the state round trip:\n got %+v\nwant %+v", cut, cfgs[i], got[i], want[i])
			}
		}
	}
}
