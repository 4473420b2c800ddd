// Package stack implements the single-pass all-associativity cache
// sweep: one traversal of a memory-reference trace produces exact
// per-configuration hit/miss counts for every LRU configuration of the
// paper's §4 case study, bit-identical to simulating each cache
// independently (cache.Sweep).
//
// The engine rests on the LRU inclusion property (Mattson et al.'s stack
// algorithms, specialized to set-associative caches): for a fixed line
// size and set count S, the contents of an A-way LRU cache are exactly
// the A most-recently-used distinct lines mapping to each set, for every
// A simultaneously. A reference therefore hits in the (S, A) cache if
// and only if its line sits at recency depth < A within its set. One
// "refinement" per distinct (line size, S) pair maintains each set's
// recency list truncated at the deepest associativity any configuration
// needs (8 in the paper sweep), and records a histogram of observed
// depths; the per-configuration miss count for (S, A) is then just the
// suffix sum of the histogram from depth A — computed once at the end,
// entirely off the per-reference path. All refinements of one line size
// form a Group behind one stage-1 filter (filter.go), which drops the
// references that sit at depth 0 in every refinement — about two thirds
// of a session trace — so each refinement consumes only the residue.
// The 56-configuration paper sweep runs as 2 line-size groups of 10
// refinements each, so its LRU parallelism is one unit per line size.
//
// Exactness of the depth-histogram sharing holds only for LRU, whose
// eviction order is a pure function of the reference stream and which
// satisfies the inclusion property across associativities. FIFO and
// tree-PLRU lack inclusion (Belady's anomaly), so they cannot share one
// histogram across ways — but they are still deterministic functions of
// the reference stream, so a single-pass "family" unit (family.go)
// simulates every configuration of one (policy, line size) group in
// lockstep behind the same stage-1 filter. Random depends on each
// cache's private PRNG state and falls back to direct per-config
// simulation (cache.Cache) behind the same Unit interface; OPT needs
// future knowledge and is served by the opt package via the sweep
// layer, never by this engine.
//
// Write policies ride along without splitting any grouping: every
// variant is write-allocate, so replacement state is kind-blind and the
// kinded entry points (AccessAllKinded) differ from the plain ones only
// in accounting. For LRU write-back the refinement tracks, per resident
// line, the maximum recency depth reached since the line was last
// written ("wmax", 0xFF = clean): a line is dirty in the A-way cache
// exactly when wmax < A, so crossing depth j-1 -> j with wmax < j is
// precisely the j-way cache's dirty eviction, counted once into a
// writeback histogram indexed by j.
package stack

import (
	"fmt"

	"palmsim/internal/cache"
)

// Unit is one independently advanceable simulation shard: a line-size
// group, a family or a direct-simulation fallback cache. Units are
// mutually independent, so a sweep engine may drive them from different
// goroutines as long as each unit observes the full trace in order.
type Unit interface {
	AccessAll(refs []uint32)
	AccessAllKinded(refs []uint32, kinds []uint8)
}

// refCfg ties a configuration served by a refinement back to its index
// in the caller's configuration slice.
type refCfg struct {
	index int
	cfg   cache.Config
}

// Group serves every LRU refinement of one line size behind one
// stage-1 filter (filter.go): a dropped reference sits at recency depth
// 0 in every refinement, so it is a hit everywhere and reorders
// nothing, and the group counts it once. Each refinement consumes only
// the surviving records.
type Group struct {
	filter
	lineBytes   int
	refinements []*Refinement
}

// AccessAll advances every refinement over one chunk of references.
func (g *Group) AccessAll(refs []uint32) { g.feed(refs, nil, g.run) }

// AccessAllKinded advances every refinement over one kinded chunk.
// Replacement is write-allocate and kind-blind; kinds only add the
// write count and, for write-back refinements, the wmax bookkeeping.
func (g *Group) AccessAllKinded(refs []uint32, kinds []uint8) { g.feed(refs, kinds, g.run) }

func (g *Group) run(recs []uint64) {
	for _, r := range g.refinements {
		r.run(recs)
	}
}

// Refinement is the all-associativity state for one (line size, set
// count) geometry: per-set recency lists truncated at the deepest
// associativity any served configuration needs, plus depth histograms
// of the references its group's filter let through, split by memory
// region.
type Refinement struct {
	lineBytes int
	sets      int
	lineShift uint
	setMask   uint32
	depth     int      // deepest Ways over cfgs; recency lists keep this many lines
	lists     []uint32 // sets*depth entries: line number + 1, 0 = empty, MRU first
	// histRAM[d] / histFlash[d] count records found at recency depth d;
	// index depth counts records not found within the list at all
	// (misses for every served configuration).
	histRAM   []uint64
	histFlash []uint64
	// Write-back accounting, allocated only when a served configuration
	// uses WriteBack. wmax parallels lists: per entry, the maximum
	// recency depth reached since the line was last written (0xFF =
	// clean, never written since fill). wbHist[j] counts dirty crossings
	// into depth j — exactly the j-way configuration's writebacks.
	wmax   []uint8
	wbHist []uint64
	cfgs   []refCfg
}

// LineBytes returns the line size this refinement serves.
func (r *Refinement) LineBytes() int { return r.lineBytes }

// Sets returns the set count this refinement serves.
func (r *Refinement) Sets() int { return r.sets }

// Depth returns the recency-list depth (the deepest associativity among
// the served configurations).
func (r *Refinement) Depth() int { return r.depth }

// Configs returns the configurations this refinement produces results
// for.
func (r *Refinement) Configs() []cache.Config {
	out := make([]cache.Config, len(r.cfgs))
	for i, rc := range r.cfgs {
		out[i] = rc.cfg
	}
	return out
}

// run advances the refinement over one batch of stage-1 records. When
// a served configuration is write-back it maintains the per-entry wmax
// dirty bound alongside every recency-list shift.
func (r *Refinement) run(recs []uint64) {
	depth := r.depth
	track := r.wmax != nil
	for _, rec := range recs {
		hist := r.histRAM
		if rec&recFlash != 0 {
			hist = r.histFlash
		}
		line := uint32(rec)
		key := line + 1
		base := int(line&r.setMask) * depth
		set := r.lists[base : base+depth]
		write := rec&recWrite != 0
		if set[0] == key {
			// MRU re-reference: a hit in every served configuration and
			// no reordering.
			hist[0]++
			if track && write {
				r.wmax[base] = 0 // rewritten at the front: dirty everywhere
			}
			continue
		}
		// Walk for the line or the first empty slot (entries fill from
		// the front, so a zero ends the occupied prefix).
		p := 1
		for p < depth && set[p] != key && set[p] != 0 {
			p++
		}
		bucket := depth // not resident: miss at every associativity
		pos := p
		if p == depth {
			pos = depth - 1 // full set: the LRU tail line is evicted
		} else if set[p] == key {
			bucket = p
		}
		hist[bucket]++
		if !track {
			for j := pos; j > 0; j-- {
				set[j] = set[j-1]
			}
			set[0] = key
			continue
		}
		wm := r.wmax[base : base+depth]
		// The front entry's wmax after this access: a found line keeps
		// its bound on a read (still dirty wherever it stayed resident)
		// and resets on a write; a fresh fill is clean unless written.
		front := uint8(0xFF)
		if bucket != depth {
			front = wm[p]
		}
		if write {
			front = 0
		}
		// A full-set insert drops the LRU tail across depth-1 -> depth:
		// the depth-way configuration's eviction.
		if bucket == depth && set[depth-1] != 0 && wm[depth-1] < uint8(depth) {
			r.wbHist[depth]++
		}
		// Shift entries 0..pos-1 down one depth each; every occupied
		// entry crossing j-1 -> j with wmax < j is the j-way cache's
		// dirty eviction, after which that cache holds the line clean
		// (if at all), so the bound advances to j.
		for j := pos; j > 0; j-- {
			set[j] = set[j-1]
			w := wm[j-1]
			if w < uint8(j) {
				r.wbHist[j]++
				w = uint8(j)
			}
			wm[j] = w
		}
		set[0] = key
		wm[0] = front
	}
}

// results fills the served configurations' slots of out: the access,
// region and write counts are the group filter's, and a record at depth
// d misses (S, A) iff d >= A — dropped references sit at depth 0 and
// hit everywhere.
func (r *Refinement) results(f *filter, out []cache.Result) {
	for _, rc := range r.cfgs {
		res := cache.Result{Config: rc.cfg}
		f.fill(&res)
		for d := rc.cfg.Ways; d <= r.depth; d++ {
			ram, flash := r.histRAM[d], r.histFlash[d]
			res.Misses += ram + flash
			res.RAMMisses += ram
			res.FlashMisses += flash
		}
		if rc.cfg.Write == cache.WriteBack && r.wbHist != nil {
			res.Writebacks = r.wbHist[rc.cfg.Ways]
		}
		out[rc.index] = res
	}
}

// fallback is a configuration simulated directly.
type fallback struct {
	index int
	c     *cache.Cache
}

// Engine partitions a configuration set into line-size groups of
// refinements (LRU), single-pass families (FIFO, PLRU), and
// direct-simulation fallbacks (Random) and assembles results in the
// original configuration order. OPT configurations are rejected: they
// need whole-trace annotation, which the sweep layer provides through
// the opt package.
type Engine struct {
	groups    []*Group
	families  []*Family
	fallbacks []fallback
	nconfigs  int
}

// New validates the configurations and builds the refinement tree:
// LRU configurations group by line size, then by set count, each
// refinement's recency depth being its deepest associativity; FIFO and
// PLRU configurations group into per-(policy, line size) families.
// Groups, refinements and families keep the order in which the
// configurations first name them.
func New(cfgs []cache.Config) (*Engine, error) {
	e := &Engine{nconfigs: len(cfgs)}
	byLine := map[int]*Group{}
	type geom struct{ line, sets int }
	byGeom := map[geom]*Refinement{}
	type famKey struct {
		policy cache.Policy
		line   int
	}
	byFam := map[famKey]*Family{}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		switch cfg.Policy {
		case cache.LRU:
			g := byLine[cfg.LineBytes]
			if g == nil {
				g = &Group{filter: newFilter(cfg), lineBytes: cfg.LineBytes}
				byLine[cfg.LineBytes] = g
				e.groups = append(e.groups, g)
			}
			k := geom{line: cfg.LineBytes, sets: cfg.Sets()}
			r := byGeom[k]
			if r == nil {
				r = &Refinement{
					lineBytes: cfg.LineBytes,
					sets:      cfg.Sets(),
					lineShift: cfg.IndexShift(),
					setMask:   uint32(cfg.Sets() - 1),
				}
				byGeom[k] = r
				g.refinements = append(g.refinements, r)
				g.minSetMask = min(g.minSetMask, r.setMask)
			}
			if cfg.Ways > r.depth {
				r.depth = cfg.Ways
			}
			r.cfgs = append(r.cfgs, refCfg{index: i, cfg: cfg})
			if cfg.Write == cache.WriteBack {
				g.keepWrites = true
			}
		case cache.FIFO, cache.PLRU:
			k := famKey{policy: cfg.Policy, line: cfg.LineBytes}
			f := byFam[k]
			if f == nil {
				f = &Family{filter: newFilter(cfg), policy: cfg.Policy, lineBytes: cfg.LineBytes}
				byFam[k] = f
				e.families = append(e.families, f)
			}
			v := newFamilyVariant(i, cfg)
			f.minSetMask = min(f.minSetMask, v.setMask)
			f.variants = append(f.variants, v)
			if v.dirty != nil {
				f.keepWrites = true
			}
		case cache.OPT:
			return nil, fmt.Errorf("stack: %v needs whole-trace annotation; the sweep layer serves OPT through the opt package", cfg)
		default: // Random: private PRNG state, simulated directly.
			c, err := cache.New(cfg)
			if err != nil {
				return nil, err
			}
			e.fallbacks = append(e.fallbacks, fallback{index: i, c: c})
		}
	}
	for _, r := range e.Refinements() {
		r.lists = make([]uint32, r.sets*r.depth)
		r.histRAM = make([]uint64, r.depth+1)
		r.histFlash = make([]uint64, r.depth+1)
		for _, rc := range r.cfgs {
			if rc.cfg.Write == cache.WriteBack && r.wmax == nil {
				r.wmax = make([]uint8, r.sets*r.depth)
				for j := range r.wmax {
					r.wmax[j] = 0xFF
				}
				r.wbHist = make([]uint64, r.depth+1)
			}
		}
	}
	return e, nil
}

// Units returns the engine's independently advanceable shards:
// line-size groups first, then families, then direct-simulation
// fallbacks.
func (e *Engine) Units() []Unit {
	units := make([]Unit, 0, len(e.groups)+len(e.families)+len(e.fallbacks))
	for _, g := range e.groups {
		units = append(units, g)
	}
	for _, f := range e.families {
		units = append(units, f)
	}
	for _, f := range e.fallbacks {
		units = append(units, f.c)
	}
	return units
}

// Refinements exposes every group's refinements in unit order (for
// diagnostics and the grouping-invariant tests).
func (e *Engine) Refinements() []*Refinement {
	var out []*Refinement
	for _, g := range e.groups {
		out = append(out, g.refinements...)
	}
	return out
}

// Families exposes the FIFO/PLRU family units.
func (e *Engine) Families() []*Family { return e.families }

// FamilyConfigs returns how many configurations are served by
// single-pass families.
func (e *Engine) FamilyConfigs() int {
	n := 0
	for _, f := range e.families {
		n += len(f.variants)
	}
	return n
}

// FallbackConfigs returns how many configurations are simulated directly
// rather than through a refinement or family.
func (e *Engine) FallbackConfigs() int { return len(e.fallbacks) }

// Results assembles per-configuration results in the order the
// configurations were passed to New.
func (e *Engine) Results() []cache.Result {
	out := make([]cache.Result, e.nconfigs)
	for _, g := range e.groups {
		for _, r := range g.refinements {
			r.results(&g.filter, out)
		}
	}
	for _, f := range e.families {
		f.results(out)
	}
	for _, f := range e.fallbacks {
		out[f.index] = f.c.Result()
	}
	return out
}

// Sweep runs a whole trace through a fresh engine on one goroutine — the
// single-pass counterpart of cache.Sweep, and the reference entry point
// the differential tests compare against it.
func Sweep(cfgs []cache.Config, trace []uint32) ([]cache.Result, error) {
	e, err := New(cfgs)
	if err != nil {
		return nil, err
	}
	for _, u := range e.Units() {
		u.AccessAll(trace)
	}
	return e.Results(), nil
}

// SweepKinded is the kinded counterpart of Sweep: every unit sees the
// (reference, kind) stream, producing write and writeback accounting on
// top of the identical hit/miss counts.
func SweepKinded(cfgs []cache.Config, trace []uint32, kinds []uint8) ([]cache.Result, error) {
	e, err := New(cfgs)
	if err != nil {
		return nil, err
	}
	for _, u := range e.Units() {
		u.AccessAllKinded(trace, kinds)
	}
	return e.Results(), nil
}
