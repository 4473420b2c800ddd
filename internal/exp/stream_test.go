package exp

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"palmsim/internal/dtrace"
	"palmsim/internal/m68k"
	"palmsim/internal/simerr"
)

func testTrace(n int) []uint32 {
	rng := rand.New(rand.NewSource(42))
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32()
	}
	return out
}

// TestTraceSourceStreamsMarshalled: streaming a MarshalTrace blob in odd
// chunk sizes reproduces UnmarshalTrace's result.
func TestTraceSourceStreamsMarshalled(t *testing.T) {
	want := testTrace(10_007)
	data := MarshalTrace(want)
	for _, chunk := range []int{1, 13, 4096, 20_000} {
		ts, err := NewTraceSource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if ts.Refs() != len(want) {
			t.Fatalf("header claims %d refs, want %d", ts.Refs(), len(want))
		}
		var got []uint32
		buf := make([]uint32, chunk)
		for {
			n, err := ts.NextChunk(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: got %d refs", chunk, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: ref %d = %#x, want %#x", chunk, i, got[i], want[i])
			}
		}
	}
}

// TestTraceSourceRejectsGarbage covers the header and truncation errors.
func TestTraceSourceRejectsGarbage(t *testing.T) {
	if _, err := NewTraceSource(strings.NewReader("not a trace")); err == nil {
		t.Error("bad header accepted")
	}
	data := MarshalTrace(testTrace(100))
	ts, err := NewTraceSource(bytes.NewReader(data[:len(data)-10]))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 256)
	if _, err := ts.NextChunk(buf); err == nil {
		t.Error("truncated trace streamed without error")
	}
}

// TestOpenTraceSourceSniffsFormats: the magic sniffer must route raw and
// packed blobs to the matching streaming source and reject everything
// else.
func TestOpenTraceSourceSniffsFormats(t *testing.T) {
	want := testTrace(2_003)
	raw := MarshalTrace(want)
	packed, err := dtrace.PackTrace(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		format string
		data   []byte
	}{
		{"raw", raw},
		{"packed", packed},
	} {
		src, format, err := OpenTraceSource(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		if format != tc.format {
			t.Errorf("sniffed %q, want %q", format, tc.format)
		}
		var got []uint32
		buf := make([]uint32, 512)
		for {
			n, err := src.NextChunk(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: streamed %d refs, want %d", tc.format, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: ref %d = %#x, want %#x", tc.format, i, got[i], want[i])
			}
		}
	}
	if _, _, err := OpenTraceSource(strings.NewReader("GARBAGE1 not a trace")); err == nil {
		t.Error("unknown magic accepted")
	}
	if _, _, err := OpenTraceSource(strings.NewReader("x")); err == nil {
		t.Error("short stream accepted")
	}
}

// TestDineroSourceStreamsMarshalled: streaming a MarshalDinero blob
// reproduces the addresses UnmarshalDinero returns.
func TestDineroSourceStreamsMarshalled(t *testing.T) {
	want := []uint32{0x1000, 0x10000004, 0xFFFFFFFF, 0, 0xABC}
	kinds := []uint8{
		uint8(m68k.Fetch), uint8(m68k.Read), uint8(m68k.Write),
		uint8(m68k.Read), uint8(m68k.Fetch),
	}
	data, err := MarshalDinero(want, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 2, 16} {
		ds := NewDineroSource(bytes.NewReader(data))
		var got []uint32
		buf := make([]uint32, chunk)
		for {
			n, err := ds.NextChunk(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d refs", chunk, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("chunk %d: ref %d = %#x, want %#x", chunk, i, got[i], want[i])
			}
		}
	}
	// A final line without a trailing newline still parses.
	ds := NewDineroSource(strings.NewReader("2 1000\n0 beef"))
	buf := make([]uint32, 8)
	n, err := ds.NextChunk(buf)
	if err != nil || n != 2 || buf[1] != 0xbeef {
		t.Errorf("newline-less tail: n=%d err=%v buf=%v", n, err, buf[:2])
	}
}

// TestDineroSourceRejectsGarbage mirrors UnmarshalDinero's validation.
func TestDineroSourceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"9 zz\n", "0 xyz\n", "0\n"} {
		ds := NewDineroSource(strings.NewReader(bad))
		if _, err := ds.NextChunk(make([]uint32, 4)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestOpenTraceSourceRejectsTrailingGarbage: junk after the packed
// end-of-trace marker must fail as corruption during streaming, not
// decode to a clean EOF — the index footer makes trailing bytes
// legitimate, so anything else there is damage.
func TestOpenTraceSourceRejectsTrailingGarbage(t *testing.T) {
	packed, err := dtrace.PackTrace(testTrace(10_000), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := append(append([]byte(nil), packed...), []byte("leftover junk")...)
	src, format, err := OpenTraceSource(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("OpenTraceSource: %v", err)
	}
	if format != "packed" {
		t.Fatalf("format = %q, want packed", format)
	}
	buf := make([]uint32, 4096)
	for {
		n, err := src.NextChunk(buf)
		if err != nil {
			if !errors.Is(err, simerr.ErrCorruptTrace) {
				t.Fatalf("error %v is not ErrCorruptTrace", err)
			}
			if !strings.Contains(err.Error(), "index footer") {
				t.Fatalf("error %q does not identify the trailing bytes", err)
			}
			return
		}
		if n == 0 {
			t.Fatal("trailing garbage decoded to clean EOF")
		}
	}
}
