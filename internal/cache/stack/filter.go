// The stage-1 filter shared by every single-pass unit of one line size:
// the LRU Group and the FIFO/PLRU Family. It classifies each reference
// once (region, line, write), accumulates the counters that are
// identical across members (accesses, RAM/flash refs, writes), and
// drops references that are provably hits with no state change in
// every member:
//
//   - a reference repeating the previous reference's line. Every member
//     is write-allocate, so after any reference to line L, L is resident
//     in every member: at LRU recency depth 0, a FIFO hit that changes
//     nothing, a PLRU re-touch that is idempotent.
//   - an A-B-A alternation (the dominant fetch/data interleave pattern)
//     when A and B map to different sets in EVERY member, i.e. their
//     line numbers differ inside the minimum set mask. B's activity then
//     cannot evict A, push it down A's recency list or touch A's PLRU
//     tree, so the return to A is the same kind of hit.
//
// A dropped write would still have to dirty its line, so when any
// member tracks dirty state (LRU wmax, FIFO/PLRU dirty bits) every
// write survives as a record; reads and fetches are filtered either way.
//
// Surviving references become records — line number plus flash/write
// flags — that each member then consumes sequentially in stage 2, so
// its own state stays hot in cache instead of being re-fetched per
// reference.
package stack

import (
	"palmsim/internal/bus"
	"palmsim/internal/cache"
)

// Record layout for the stage-1 buffer: line number in the low 32 bits,
// flags above.
const (
	recFlash uint64 = 1 << 32 // reference is ROM/flash-side
	recWrite uint64 = 1 << 33 // reference is a write
)

// batchRefs bounds how many references one stage-1 pass classifies
// before the members consume the records, so the record buffer stays a
// fixed, cache-resident size whatever the sweep's chunk length.
const batchRefs = 1024

// filter is the stage-1 state of one line-size group.
type filter struct {
	lineShift uint
	// minSetMask is the smallest member set mask: two lines differing
	// inside it map to different sets in every member.
	minSetMask uint32
	// keepWrites is set when a member tracks dirty state.
	keepWrites bool
	// last and last2 are the two most recent distinct line keys
	// (line+1; 0 = none).
	last, last2 uint32
	// Group-level counters, identical for every member: total references
	// by region and total writes. Members only count what differs
	// between them — misses and writebacks.
	totRAM, totFlash, totWrites uint64
	buf                         []uint64 // record buffer, allocated once
}

// newFilter starts the filter of cfg's line size; each member narrows
// minSetMask to its own set mask.
func newFilter(cfg cache.Config) filter {
	return filter{lineShift: cfg.IndexShift(), minSetMask: ^uint32(0), buf: make([]uint64, batchRefs)}
}

// feed runs stage 1 over a chunk in batches and hands each batch's
// records to consume. kinds is nil on address-only chunks.
func (f *filter) feed(refs []uint32, kinds []uint8, consume func(recs []uint64)) {
	for lo := 0; lo < len(refs); lo += batchRefs {
		hi := min(lo+batchRefs, len(refs))
		var k []uint8
		if kinds != nil {
			k = kinds[lo:hi]
		}
		consume(f.records(refs[lo:hi], k))
	}
}

// records classifies one batch of at most batchRefs references and
// returns the survivors.
func (f *filter) records(refs []uint32, kinds []uint8) []uint64 {
	buf := f.buf[:len(refs)]
	last, last2 := f.last, f.last2
	ram, flash, writes := f.totRAM, f.totFlash, f.totWrites
	n := 0
	for i, addr := range refs {
		isFlash := addr-bus.ROMBase < bus.ROMSize
		if isFlash {
			flash++
		} else {
			ram++
		}
		write := kinds != nil && cache.IsWrite(kinds[i])
		if write {
			writes++
		}
		line := addr >> f.lineShift
		key := line + 1
		if !write || !f.keepWrites {
			if key == last {
				continue
			}
			if key == last2 && (line^(last-1))&f.minSetMask != 0 {
				last2, last = last, key
				continue
			}
		}
		if key != last {
			last2, last = last, key
		}
		rec := uint64(line)
		if isFlash {
			rec |= recFlash
		}
		if write {
			rec |= recWrite
		}
		buf[n] = rec
		n++
	}
	f.last, f.last2 = last, last2
	f.totRAM, f.totFlash, f.totWrites = ram, flash, writes
	return buf[:n]
}

// fill writes the group-level counters into a member's result.
func (f *filter) fill(res *cache.Result) {
	res.Accesses = f.totRAM + f.totFlash
	res.RAMRefs = f.totRAM
	res.FlashRefs = f.totFlash
	res.Writes = f.totWrites
}
