// Checkpoint sidecars: a sweep interrupted mid-trace (SIGINT, deadline,
// crash between saves) resumes from a small flat file and finishes with
// results bit-identical to an uninterrupted run.
//
// Format (all little-endian):
//
//	"PALMCKP1"            8-byte magic
//	uint64 configHash     FNV-1a over engine choice + configuration set
//	uint64 refs           trace references consumed so far
//	uint32 nunits         unit count
//	nunits × {uint32 len, len bytes}   per-unit state blob
//	uint64 checksum       FNV-1a over everything above
//
// The chunk size and worker count are deliberately excluded from the
// hash: unit state depends only on the reference order, which both
// leave untouched, so a sweep may resume with a different parallelism
// than the one that wrote the sidecar.
package sweep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"palmsim/internal/cache"
	"palmsim/internal/simerr"
)

const checkpointMagic = "PALMCKP1"

// DefaultCheckpointEveryChunks is the save cadence when
// Options.CheckpointEveryChunks is unset: with the default chunk size
// that is one snapshot per ~4M references.
const DefaultCheckpointEveryChunks = 64

func (o Options) checkpointEvery() int {
	if o.CheckpointEveryChunks <= 0 {
		return DefaultCheckpointEveryChunks
	}
	return o.CheckpointEveryChunks
}

// stateful is the checkpointable face of a unit. Every unit kind — the
// direct cache.Cache, the stack engine's Group and Family, and the
// OPT direct simulator and Family — implements it.
type stateful interface {
	AppendState(b []byte) []byte
	RestoreState(b []byte) error
}

type checkpointer struct {
	path  string
	every int
	units []stateful
	hash  uint64
	refs  uint64 // references consumed, including any resumed prefix
	since int    // chunks consumed since the last save
}

func newCheckpointer(path string, every int, units []unit, hash uint64) (*checkpointer, error) {
	c := &checkpointer{path: path, every: every, hash: hash}
	c.units = make([]stateful, len(units))
	for i, u := range units {
		s, ok := u.(stateful)
		if !ok {
			return nil, simerr.New(simerr.ErrBadCheckpoint, "sweep: checkpoint",
				fmt.Errorf("unit %d (%T) is not checkpointable", i, u))
		}
		c.units[i] = s
	}
	return c, nil
}

// configHash fingerprints the engine choice and configuration set —
// geometry, replacement policy, and write policy — so a sidecar written
// by one sweep cannot silently resume another (a foreign-policy sidecar
// is rejected even when the geometries coincide).
func configHash(cfgs []cache.Config, eng Engine) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(eng))
	put(uint64(len(cfgs)))
	for _, cfg := range cfgs {
		put(uint64(cfg.SizeBytes))
		put(uint64(cfg.LineBytes))
		put(uint64(cfg.Ways))
		put(uint64(cfg.Policy))
		put(uint64(cfg.Write))
	}
	return h.Sum64()
}

func (c *checkpointer) consumed(n int) {
	c.refs += uint64(n)
	c.since++
}

func (c *checkpointer) due() bool { return c.since >= c.every }

// save encodes the sidecar in memory and writes it atomically
// (temp file in the same directory, then rename), so a crash mid-save
// leaves the previous snapshot intact. Callers must have quiesced the
// workers first: every produced chunk retired by every worker.
func (c *checkpointer) save() error {
	buf := make([]byte, 0, 4096)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, c.hash)
	buf = binary.LittleEndian.AppendUint64(buf, c.refs)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.units)))
	for _, u := range c.units {
		at := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		buf = u.AppendState(buf)
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	sum := fnv.New64a()
	sum.Write(buf)
	buf = binary.LittleEndian.AppendUint64(buf, sum.Sum64())

	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("sweep: checkpoint save: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("sweep: checkpoint save: %w", err)
	}
	c.since = 0
	return nil
}

// load restores unit state from the sidecar. found is false when the
// file does not exist (fresh start); any malformed or mismatched
// sidecar fails with simerr.ErrBadCheckpoint rather than silently
// producing wrong numbers.
func (c *checkpointer) load() (skip uint64, found bool, err error) {
	raw, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	bad := func(format string, args ...any) error {
		return simerr.New(simerr.ErrBadCheckpoint, "sweep: resume", fmt.Errorf(format, args...))
	}
	if len(raw) < len(checkpointMagic)+8+8+4+8 {
		return 0, false, bad("sidecar truncated at %d bytes", len(raw))
	}
	if string(raw[:len(checkpointMagic)]) != checkpointMagic {
		return 0, false, bad("bad magic %q", raw[:len(checkpointMagic)])
	}
	body, tail := raw[:len(raw)-8], raw[len(raw)-8:]
	sum := fnv.New64a()
	sum.Write(body)
	if got, want := binary.LittleEndian.Uint64(tail), sum.Sum64(); got != want {
		return 0, false, bad("checksum mismatch: file %#x, computed %#x", got, want)
	}
	b := body[len(checkpointMagic):]
	if hash := binary.LittleEndian.Uint64(b); hash != c.hash {
		return 0, false, bad("configuration hash %#x does not match this sweep's %#x — sidecar was written by a different configuration set or engine", hash, c.hash)
	}
	b = b[8:]
	refs := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n := binary.LittleEndian.Uint32(b); int(n) != len(c.units) {
		return 0, false, bad("sidecar has %d units, sweep has %d", n, len(c.units))
	}
	b = b[4:]
	for i, u := range c.units {
		if len(b) < 4 {
			return 0, false, bad("sidecar truncated before unit %d", i)
		}
		bl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < bl {
			return 0, false, bad("unit %d blob truncated: have %d bytes, want %d", i, len(b), bl)
		}
		if err := u.RestoreState(b[:bl]); err != nil {
			return 0, false, simerr.New(simerr.ErrBadCheckpoint, "sweep: resume", err)
		}
		b = b[bl:]
	}
	if len(b) != 0 {
		return 0, false, bad("%d trailing bytes after last unit", len(b))
	}
	c.refs = refs
	return refs, true, nil
}

// removeSidecar deletes the sidecar after a successful sweep; a leftover
// file would make the next Resume=true run skip trace it never consumed.
func (c *checkpointer) removeSidecar() { os.Remove(c.path) }

// skipRefs advances src past the prefix a resumed checkpoint has
// already consumed, in chunk-sized reads so cancellation still lands at
// a chunk boundary. A trace that ends early means the sidecar belongs
// to a longer trace — that is an ErrBadCheckpoint, not a clean EOF.
func skipRefs(ctx context.Context, src Source, skip uint64, chunkRefs int) error {
	buf := make([]uint32, chunkRefs)
	var chunks int64
	remaining := skip
	for remaining > 0 {
		if err := ctxErr(ctx); err != nil {
			return simerr.CanceledChunk(ctx, "sweep: resume skip", chunks)
		}
		want := uint64(len(buf))
		if remaining < want {
			want = remaining
		}
		n, err := src.NextChunk(buf[:want])
		if err != nil && err != io.EOF {
			return err
		}
		remaining -= uint64(n)
		chunks++
		if (n == 0 || err == io.EOF) && remaining > 0 {
			return simerr.New(simerr.ErrBadCheckpoint, "sweep: resume",
				fmt.Errorf("trace ended %d references short of the checkpoint's %d", remaining, skip))
		}
	}
	return nil
}
