// Tests for the PALMIDX1 block index: indexed traces must round-trip,
// seek bit-identically from every boundary, keep the pre-footer bytes
// identical to the index-less encoding, and leave index-less traces
// decoding everywhere unchanged.
package dtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"palmsim/internal/simerr"
)

// packIndexed packs with synthetic tick marks (one every tickEvery refs)
// so SeekTick has something to bisect.
func packIndexed(t testing.TB, addrs []uint32, kinds []uint8, tickEvery int) []byte {
	t.Helper()
	var marks []TickMark
	if tickEvery > 0 {
		for r := 0; r < len(addrs); r += tickEvery {
			marks = append(marks, TickMark{Ref: uint64(r), Tick: uint64(r / tickEvery)})
		}
	}
	data, err := PackTraceIndexed(addrs, kinds, marks)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// drainRange decodes a ranged source to exhaustion.
func drainRange(t testing.TB, src *PackedSource) []uint32 {
	t.Helper()
	defer src.Close()
	var out []uint32
	buf := make([]uint32, 1009) // deliberately unaligned with blocks
	for {
		n, err := src.NextChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestIndexedStreamingWriterMatchesPackTraceIndexed: the incremental
// indexed writer and the one-shot helper must produce identical bytes,
// and the pre-footer prefix must equal the index-less encoding.
func TestIndexedStreamingWriterMatchesPackTraceIndexed(t *testing.T) {
	addrs, kinds := packedTestTrace(20_000, 7)
	marks := []TickMark{{Ref: 0, Tick: 3}, {Ref: 5_000, Tick: 90}, {Ref: 15_000, Tick: 700}}
	want, err := PackTraceIndexed(addrs, kinds, marks)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	w, err := NewIndexedPackedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mi := 0
	for i := range addrs {
		for mi < len(marks) && marks[mi].Ref <= uint64(i) {
			w.NoteTick(marks[mi].Tick)
			mi++
		}
		if err := w.WriteRef(addrs[i], kinds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("streaming indexed writer output differs from PackTraceIndexed")
	}
	if w.Bytes() != uint64(buf.Len()) {
		t.Errorf("Bytes() = %d, encoded %d", w.Bytes(), buf.Len())
	}

	plain, err := PackTrace(addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= len(plain) {
		t.Fatalf("indexed trace (%d bytes) not longer than index-less (%d)", len(want), len(plain))
	}
	if !bytes.Equal(want[:len(plain)], plain) {
		t.Fatal("indexed trace prefix differs from index-less encoding")
	}
}

// TestIndexedTraceDecodesEverywhere: both decoders and the sniffing open
// path must accept an indexed trace and recover the original refs.
func TestIndexedTraceDecodesEverywhere(t *testing.T) {
	addrs, kinds := packedTestTrace(15_000, 11)
	data := packIndexed(t, addrs, kinds, 100)

	gotAddrs, gotKinds, err := UnpackTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if gotAddrs[i] != addrs[i] || gotKinds[i] != kinds[i] {
			t.Fatalf("UnpackTrace ref %d = %#x/%d, want %#x/%d",
				i, gotAddrs[i], gotKinds[i], addrs[i], kinds[i])
		}
	}

	src, err := NewPackedSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	streamed := drainRange(t, src)
	if len(streamed) != len(addrs) {
		t.Fatalf("streamed %d refs, want %d", len(streamed), len(addrs))
	}
	for i := range addrs {
		if streamed[i] != addrs[i] {
			t.Fatalf("streamed ref %d = %#x, want %#x", i, streamed[i], addrs[i])
		}
	}
}

// TestIndexlessTraceHasNoIndex: old traces open everywhere unchanged and
// report ErrNoIndex from the index path, never corruption.
func TestIndexlessTraceHasNoIndex(t *testing.T) {
	addrs, kinds := packedTestTrace(10_000, 13)
	data, err := PackTrace(addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexedBytes(data); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("OpenIndexedBytes on index-less trace: %v, want ErrNoIndex", err)
	}
	if _, _, err := UnpackTrace(data); err != nil {
		t.Fatalf("UnpackTrace rejected index-less trace: %v", err)
	}
	src, err := NewPackedSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := drainRange(t, src); len(got) != len(addrs) {
		t.Fatalf("streamed %d refs, want %d", len(got), len(addrs))
	}

	// The tiny traces from before the index era must also stay fine.
	empty, err := PackTrace(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexedBytes(empty); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("OpenIndexedBytes on empty trace: %v, want ErrNoIndex", err)
	}
}

// TestSeekRefBitIdentical: resuming from every block boundary — and from
// interior ordinals requiring a discard — must reproduce the serial
// decode's suffix exactly.
func TestSeekRefBitIdentical(t *testing.T) {
	addrs, kinds := packedTestTrace(3*blockRefs+777, 17)
	data := packIndexed(t, addrs, kinds, 1000)
	it, err := OpenIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if it.TotalRefs() != uint64(len(addrs)) {
		t.Fatalf("TotalRefs = %d, want %d", it.TotalRefs(), len(addrs))
	}
	refs := []uint64{0, 1, 4095, 4096, 4097, 8192, 10_000, uint64(len(addrs)) - 1, uint64(len(addrs))}
	for _, ref := range refs {
		src, err := it.SeekRef(ref)
		if err != nil {
			t.Fatalf("SeekRef(%d): %v", ref, err)
		}
		got := drainRange(t, src)
		want := addrs[ref:]
		if len(got) != len(want) {
			t.Fatalf("SeekRef(%d): %d refs, want %d", ref, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SeekRef(%d): ref %d = %#x, want %#x", ref, ref+uint64(i), got[i], want[i])
			}
		}
	}
	if _, err := it.SeekRef(uint64(len(addrs)) + 1); err == nil {
		t.Error("SeekRef beyond the trace succeeded")
	}
}

// TestOpenIndexedTraceFile: the file-backed open path must seek an
// indexed trace bit-identically through its own file handles, and report
// ErrNoIndex — not corruption — for an index-less file.
func TestOpenIndexedTraceFile(t *testing.T) {
	addrs, kinds := packedTestTrace(3*blockRefs+500, 31)
	dir := t.TempDir()
	path := filepath.Join(dir, "session.ptrace")
	if err := os.WriteFile(path, packIndexed(t, addrs, kinds, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	it, err := OpenIndexedTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if it.TotalRefs() != uint64(len(addrs)) {
		t.Fatalf("TotalRefs = %d, want %d", it.TotalRefs(), len(addrs))
	}
	for _, ref := range []uint64{0, blockRefs + 3, uint64(len(addrs))} {
		src, err := it.SeekRef(ref)
		if err != nil {
			t.Fatalf("SeekRef(%d): %v", ref, err)
		}
		got := drainRange(t, src)
		want := addrs[ref:]
		if len(got) != len(want) {
			t.Fatalf("SeekRef(%d): %d refs, want %d", ref, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SeekRef(%d): ref %d = %#x, want %#x", ref, ref+uint64(i), got[i], want[i])
			}
		}
	}

	plain, err := PackTrace(addrs, kinds)
	if err != nil {
		t.Fatal(err)
	}
	plainPath := filepath.Join(dir, "plain.ptrace")
	if err := os.WriteFile(plainPath, plain, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexedTrace(plainPath); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("index-less file: %v, want ErrNoIndex", err)
	}
	if _, err := OpenIndexedTrace(filepath.Join(dir, "missing.ptrace")); err == nil {
		t.Fatal("OpenIndexedTrace on a missing file succeeded")
	}
	// Every seek opens its own handle, so a file removed after the index
	// was read fails the seek rather than decoding stale state.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := it.SeekRef(1); err == nil {
		t.Fatal("SeekRef succeeded on a removed file")
	}
}

// TestSeekRefCarriesKinds: a seeked decoder resumes the kind stream as
// well as the addresses, and Refs reports absolute trace ordinals.
func TestSeekRefCarriesKinds(t *testing.T) {
	addrs, kinds := packedTestTrace(2*blockRefs+300, 37)
	it, err := OpenIndexedBytes(packIndexed(t, addrs, kinds, 0))
	if err != nil {
		t.Fatal(err)
	}
	ref := uint64(blockRefs + 11)
	src, err := it.SeekRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Refs() != ref {
		t.Fatalf("Refs after SeekRef(%d) = %d", ref, src.Refs())
	}
	buf, kbuf := make([]uint32, 777), make([]uint8, 777)
	i := ref
	for {
		n, err := src.NextChunkKinded(buf, kbuf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for j := 0; j < n; j++ {
			if buf[j] != addrs[i] || kbuf[j] != kinds[i] {
				t.Fatalf("ref %d = (%#x, %d), want (%#x, %d)", i, buf[j], kbuf[j], addrs[i], kinds[i])
			}
			i++
		}
	}
	if i != uint64(len(addrs)) || src.Refs() != i {
		t.Fatalf("decoded to ref %d (Refs %d), want %d", i, src.Refs(), len(addrs))
	}
}

// TestOpenIndexedRejectsDamagedTail: the tail probe reports a missing
// footer as ErrNoIndex and every damaged one as ErrCorruptTrace.
func TestOpenIndexedRejectsDamagedTail(t *testing.T) {
	addrs, kinds := packedTestTrace(blockRefs+100, 41)
	good := packIndexed(t, addrs, kinds, 0)
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	footOff := binary.LittleEndian.Uint64(good[len(good)-16:])
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"shorter than the magic", []byte("PALM"), simerr.ErrCorruptTrace},
		{"not a packed trace", edit(func(b []byte) { b[0] = 'X' }), simerr.ErrCorruptTrace},
		{"footer offset beyond the file", edit(func(b []byte) {
			binary.LittleEndian.PutUint64(b[len(b)-16:], uint64(len(b)))
		}), simerr.ErrCorruptTrace},
		{"footer offset off the footer magic", edit(func(b []byte) {
			binary.LittleEndian.PutUint64(b[len(b)-16:], footOff+1)
		}), simerr.ErrCorruptTrace},
		{"entry bytes flipped", edit(func(b []byte) { b[footOff+20] ^= 0xFF }), simerr.ErrCorruptTrace},
		{"trailing magic cut", good[:len(good)-1], ErrNoIndex},
	} {
		if _, err := OpenIndexedBytes(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSeekTickBlockGranular: SeekTick lands on the last indexed boundary
// at or before the requested tick and resumes bit-identically.
func TestSeekTickBlockGranular(t *testing.T) {
	addrs, kinds := packedTestTrace(4*blockRefs, 23)
	tickEvery := 512 // tick t starts at ref t*512
	data := packIndexed(t, addrs, kinds, tickEvery)
	it, err := OpenIndexedBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tick := range []uint64{0, 1, 7, 8, 9, 20, 1 << 40} {
		src, startRef, startTick, err := it.SeekTick(tick)
		if err != nil {
			t.Fatalf("SeekTick(%d): %v", tick, err)
		}
		if startTick > tick && startRef != 0 {
			t.Fatalf("SeekTick(%d) landed after the request: ref %d tick %d", tick, startRef, startTick)
		}
		if startRef != uint64(it.Index().Entries[it.Index().FindTick(tick)].StartRef) {
			t.Fatalf("SeekTick(%d) ref %d disagrees with FindTick", tick, startRef)
		}
		got := drainRange(t, src)
		want := addrs[startRef:]
		if len(got) != len(want) {
			t.Fatalf("SeekTick(%d): %d refs, want %d", tick, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SeekTick(%d): ref %d diverged", tick, startRef+uint64(i))
			}
		}
	}
}

// FuzzIndexSeek is the differential seek target: for any input that
// opens as an indexed trace, seeking to an arbitrary ordinal and
// decoding to the end must reproduce the serial decode's suffix.
func FuzzIndexSeek(f *testing.F) {
	addrs, kinds := packedTestTrace(3*blockRefs+500, 29)
	f.Add(packIndexed(f, addrs, kinds, 777), uint64(5000))
	f.Add(packIndexed(f, addrs[:100], nil, 10), uint64(3))
	f.Add(packIndexed(f, nil, nil, 0), uint64(0))
	plain, err := PackTrace(addrs[:2000], kinds[:2000])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain, uint64(1000))

	f.Fuzz(func(t *testing.T, data []byte, ref uint64) {
		it, err := OpenIndexedBytes(data)
		if err != nil {
			return // no index, or corrupt: rejection is the correct outcome
		}
		serial, _, serialErr := UnpackTrace(data)
		if serialErr == nil && it.TotalRefs() != uint64(len(serial)) {
			t.Fatalf("index claims %d refs, serial decode found %d", it.TotalRefs(), len(serial))
		}
		if total := it.TotalRefs(); total > 0 {
			ref %= total + 1
		} else {
			ref = 0
		}
		src, err := it.SeekRef(ref)
		if err != nil {
			if serialErr == nil {
				t.Fatalf("SeekRef(%d) failed on a serially valid trace: %v", ref, err)
			}
			return
		}
		defer src.Close()
		var got []uint32
		buf := make([]uint32, 257)
		for {
			n, err := src.NextChunk(buf)
			if err != nil {
				if serialErr == nil {
					t.Fatalf("ranged decode failed on a serially valid trace: %v", err)
				}
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if serialErr != nil {
			// The footer validated but the stream is corrupt elsewhere;
			// nothing serial to compare against.
			return
		}
		want := serial[ref:]
		if len(got) != len(want) {
			t.Fatalf("SeekRef(%d) decoded %d refs, serial suffix holds %d", ref, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SeekRef(%d) ref %d = %#x, serial %#x", ref, ref+uint64(i), got[i], want[i])
			}
		}
	})
}
