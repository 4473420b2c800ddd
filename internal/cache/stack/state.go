// Checkpoint serialization for the stack engine. A unit's blob is its
// stage-1 filter state (last-line keys, shared counters) followed by
// each member's: a refinement's recency lists, depth histograms and any
// wmax/writeback state; a family variant's miss counters, lines,
// replacement bookkeeping and dirty bits. All sizes are fixed functions
// of the configuration set, which the sweep checkpointer fingerprints,
// so the layouts need no framing; a blob of any other length is
// rejected.
package stack

import (
	"encoding/binary"
	"fmt"
)

// filterStateLen is the encoded size of a filter's state.
const filterStateLen = 4 + 4 + 3*8

func (f *filter) appendState(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, f.last)
	b = binary.LittleEndian.AppendUint32(b, f.last2)
	for _, x := range []uint64{f.totRAM, f.totFlash, f.totWrites} {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func (f *filter) restoreState(b []byte) []byte {
	f.last = binary.LittleEndian.Uint32(b)
	f.last2 = binary.LittleEndian.Uint32(b[4:])
	b = b[8:]
	for _, p := range []*uint64{&f.totRAM, &f.totFlash, &f.totWrites} {
		*p = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	return b
}

func (r *Refinement) stateLen() int {
	return 4*len(r.lists) + 8*len(r.histRAM) + 8*len(r.histFlash) +
		len(r.wmax) + 8*len(r.wbHist)
}

func (r *Refinement) appendState(b []byte) []byte {
	for _, v := range r.lists {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for _, h := range [][]uint64{r.histRAM, r.histFlash} {
		for _, v := range h {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	b = append(b, r.wmax...)
	for _, v := range r.wbHist {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func (r *Refinement) restoreState(b []byte) []byte {
	for i := range r.lists {
		r.lists[i] = binary.LittleEndian.Uint32(b)
		b = b[4:]
	}
	for _, h := range [][]uint64{r.histRAM, r.histFlash} {
		for i := range h {
			h[i] = binary.LittleEndian.Uint64(b)
			b = b[8:]
		}
	}
	copy(r.wmax, b)
	b = b[len(r.wmax):]
	for i := range r.wbHist {
		r.wbHist[i] = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	return b
}

// AppendState serializes the group's mutable state onto b.
func (g *Group) AppendState(b []byte) []byte {
	b = g.filter.appendState(b)
	for _, r := range g.refinements {
		b = r.appendState(b)
	}
	return b
}

// RestoreState loads state previously produced by AppendState for the
// same configuration group.
func (g *Group) RestoreState(b []byte) error {
	want := filterStateLen
	for _, r := range g.refinements {
		want += r.stateLen()
	}
	if len(b) != want {
		return fmt.Errorf("stack: group state blob is %d bytes, want %d for the %dB LRU group",
			len(b), want, g.lineBytes)
	}
	b = g.filter.restoreState(b)
	for _, r := range g.refinements {
		b = r.restoreState(b)
	}
	return nil
}

func (v *familyVariant) stateLen() int {
	return 4*8 + 4*len(v.lines) + len(v.rr) + len(v.plru) + len(v.dirty)
}

func (v *familyVariant) appendState(b []byte) []byte {
	for _, x := range []uint64{v.res.Misses, v.res.RAMMisses, v.res.FlashMisses, v.res.Writebacks} {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	for _, x := range v.lines {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	b = append(b, v.rr...)
	b = append(b, v.plru...)
	for _, d := range v.dirty {
		if d {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func (v *familyVariant) restoreState(b []byte) []byte {
	for _, p := range []*uint64{&v.res.Misses, &v.res.RAMMisses, &v.res.FlashMisses, &v.res.Writebacks} {
		*p = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	for i := range v.lines {
		v.lines[i] = binary.LittleEndian.Uint32(b)
		b = b[4:]
	}
	copy(v.rr, b)
	b = b[len(v.rr):]
	copy(v.plru, b)
	b = b[len(v.plru):]
	for i := range v.dirty {
		v.dirty[i] = b[i] != 0
	}
	return b[len(v.dirty):]
}

// AppendState serializes the family's mutable state onto b.
func (f *Family) AppendState(b []byte) []byte {
	b = f.filter.appendState(b)
	for _, v := range f.variants {
		b = v.appendState(b)
	}
	return b
}

// RestoreState loads state previously produced by AppendState for the
// same configuration group.
func (f *Family) RestoreState(b []byte) error {
	want := filterStateLen
	for _, v := range f.variants {
		want += v.stateLen()
	}
	if len(b) != want {
		return fmt.Errorf("stack: family state blob is %d bytes, want %d for %s/%dB family",
			len(b), want, f.policy, f.lineBytes)
	}
	b = f.filter.restoreState(b)
	for _, v := range f.variants {
		b = v.restoreState(b)
	}
	return nil
}
