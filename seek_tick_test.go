package palmsim_test

import (
	"context"
	"testing"

	"palmsim"
	"palmsim/internal/dtrace"
)

// TestReplaySeekTickIsSuffix: a fast-forwarded replay (-seek-tick) must
// produce exactly the tail of the full replay's trace — the prefix is
// emulated but untraced, and everything from the seek point on is
// bit-identical. Tick marks from the seek run must all be at or after
// the requested tick.
func TestReplaySeekTickIsSuffix(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and replays a session")
	}
	col, _ := benchSetup(t)
	opt := palmsim.DefaultReplayOptions()
	opt.CollectTicks = true
	full, err := palmsim.Replay(context.Background(), col.Initial, col.Log, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.TraceTicks) < 4 {
		t.Fatalf("only %d tick marks collected", len(full.TraceTicks))
	}
	// Seek to a tick that recorded references in the middle of the run.
	mid := full.TraceTicks[len(full.TraceTicks)/2]

	opt.SeekTick = uint32(mid.Tick)
	seek, err := palmsim.Replay(context.Background(), col.Initial, col.Log, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seek.Trace) == 0 {
		t.Fatal("seek replay traced nothing")
	}
	if len(seek.Trace) >= len(full.Trace) {
		t.Fatalf("seek replay traced %d refs, full replay %d — nothing was skipped",
			len(seek.Trace), len(full.Trace))
	}
	tail := full.Trace[uint64(len(full.Trace))-uint64(len(seek.Trace)):]
	for i := range tail {
		if seek.Trace[i] != tail[i] {
			t.Fatalf("seek trace ref %d = %#x, full-trace tail %#x", i, seek.Trace[i], tail[i])
		}
	}
	for _, m := range seek.TraceTicks {
		if m.Tick < mid.Tick {
			t.Fatalf("seek run recorded tick %d before the %d seek point", m.Tick, mid.Tick)
		}
	}
	t.Logf("full trace %d refs; seek to tick %d traced %d refs (skipped %d)",
		len(full.Trace), mid.Tick, len(seek.Trace), len(full.Trace)-len(seek.Trace))
}

// TestIndexedSessionTraceRoundTrip: the session trace's indexed packing
// must seek bit-identically from arbitrary ordinals — the golden
// round-trip on real (not synthetic) data.
func TestIndexedSessionTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("collects and replays a session")
	}
	_, trace := benchSetup(t)
	packed, err := dtrace.PackTraceIndexed(trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := dtrace.OpenIndexedBytes(packed)
	if err != nil {
		t.Fatal(err)
	}
	if it.TotalRefs() != uint64(len(trace)) {
		t.Fatalf("index claims %d refs, trace holds %d", it.TotalRefs(), len(trace))
	}
	for _, ref := range []uint64{0, 1, 4096, uint64(len(trace)) / 3, uint64(len(trace)) - 1} {
		src, err := it.SeekRef(ref)
		if err != nil {
			t.Fatalf("SeekRef(%d): %v", ref, err)
		}
		buf := make([]uint32, 64<<10)
		i := ref
		for {
			n, err := src.NextChunk(buf)
			if err != nil {
				t.Fatalf("SeekRef(%d): %v", ref, err)
			}
			if n == 0 {
				break
			}
			for _, a := range buf[:n] {
				if a != trace[i] {
					t.Fatalf("SeekRef(%d): ref %d = %#x, want %#x", ref, i, a, trace[i])
				}
				i++
			}
		}
		src.Close()
		if i != uint64(len(trace)) {
			t.Fatalf("SeekRef(%d): decoded to ref %d, want %d", ref, i, len(trace))
		}
	}
}
