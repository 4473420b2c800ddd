// Single-pass FIFO and tree-PLRU evaluation. Neither policy satisfies
// the LRU inclusion property, so no depth histogram can be shared
// across associativities — but both are deterministic functions of the
// reference stream, so one Family unit simulates every configuration of
// a (policy, line size) group over a single pass in two stages: the
// shared stage-1 filter (filter.go) drops the references that are
// hits with no state change in every variant, then each variant
// consumes the surviving records sequentially, so its lines/rr/plru
// arrays stay hot in cache instead of being re-fetched per reference —
// the loop order that makes the family several times faster than
// per-configuration direct simulation.
//
// FIFO eviction is a per-set round-robin insertion pointer, bit-exact
// with the direct simulator's first-invalid-then-oldest-rank rule:
// fills during warming land in way order (so the pointer always names
// the first invalid way), and a full set replaces ways in insertion
// order, which is exactly the rotating pointer. PLRU shares the
// cache.PLRUTouch/PLRUVictim tree primitives with the direct simulator,
// so the two cannot drift.
package stack

import "palmsim/internal/cache"

// familyVariant is one configuration's state within a Family.
type familyVariant struct {
	index   int // position in the engine's result slice
	cfg     cache.Config
	setMask uint32
	ways    int
	lines   []uint32 // line number + 1; 0 = invalid
	rr      []uint8  // FIFO: per-set round-robin insertion pointer
	plru    []uint8  // PLRU: per-set tree bits
	dirty   []bool   // WriteBack: per-line dirty bits
	res     cache.Result
}

// Family simulates every FIFO or PLRU configuration of one line size in
// lockstep behind one stage-1 filter.
type Family struct {
	filter
	policy    cache.Policy
	lineBytes int
	variants  []*familyVariant
}

// AccessAll advances every variant over the chunk.
func (f *Family) AccessAll(refs []uint32) { f.feed(refs, nil, f.run) }

// AccessAllKinded advances every variant over a kinded chunk.
func (f *Family) AccessAllKinded(refs []uint32, kinds []uint8) { f.feed(refs, kinds, f.run) }

func (f *Family) run(recs []uint64) {
	for _, v := range f.variants {
		v.run(recs)
	}
}

// run replays the filtered records through one variant. Only misses
// and writebacks are counted here; everything identical across
// variants was already accumulated by the filter.
func (v *familyVariant) run(recs []uint64) {
	lines := v.lines
	mask := v.setMask
	ways := v.ways
	for _, rec := range recs {
		line := uint32(rec)
		key := line + 1
		si := int(line & mask)
		base := si * ways
		set := lines[base : base+ways]
		hit := false
		for w := range set {
			if set[w] == key {
				if v.plru != nil {
					v.plru[si] = cache.PLRUTouch(v.plru[si], ways, w)
				}
				if v.dirty != nil && rec&recWrite != 0 {
					v.dirty[base+w] = true
				}
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		v.res.Misses++
		if rec&recFlash != 0 {
			v.res.FlashMisses++
		} else {
			v.res.RAMMisses++
		}
		var vic int
		if v.rr != nil {
			// FIFO: the rotating pointer names the first invalid way during
			// warming and the oldest-filled way thereafter.
			vic = int(v.rr[si])
			v.rr[si] = uint8((vic + 1) & (ways - 1))
		} else {
			vic = -1
			for w := range set {
				if set[w] == 0 {
					vic = w
					break
				}
			}
			if vic < 0 {
				vic = cache.PLRUVictim(v.plru[si], ways)
			}
		}
		if v.dirty != nil {
			if set[vic] != 0 && v.dirty[base+vic] {
				v.res.Writebacks++
			}
			v.dirty[base+vic] = rec&recWrite != 0
		}
		set[vic] = key
		if v.plru != nil {
			v.plru[si] = cache.PLRUTouch(v.plru[si], ways, vic)
		}
	}
}

// results composes each variant's miss counters with the family-level
// totals and fills the output slots.
func (f *Family) results(out []cache.Result) {
	for _, v := range f.variants {
		res := v.res
		f.fill(&res)
		out[v.index] = res
	}
}

// newFamilyVariant builds one member's state.
func newFamilyVariant(index int, cfg cache.Config) *familyVariant {
	sets := cfg.Sets()
	v := &familyVariant{
		index:   index,
		cfg:     cfg,
		setMask: uint32(sets - 1),
		ways:    cfg.Ways,
		lines:   make([]uint32, sets*cfg.Ways),
	}
	switch cfg.Policy {
	case cache.FIFO:
		v.rr = make([]uint8, sets)
	case cache.PLRU:
		v.plru = make([]uint8, sets)
	}
	if cfg.Write == cache.WriteBack {
		v.dirty = make([]bool, sets*cfg.Ways)
	}
	v.res.Config = cfg
	return v
}
