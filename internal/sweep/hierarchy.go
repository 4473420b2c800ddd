// Hierarchy sweeps: evaluating L1→L2 (and deeper) cache hierarchies
// over one trace pass. The planner exploits the filtered-miss-stream
// structure: every multi-level non-inclusive hierarchy's lower levels
// are a pure function of (L1 configuration, trace), so candidate
// hierarchies sharing an L1 are grouped — the L1 simulates once per
// chunk and its miss stream fans out to every candidate lower level,
// which reuses the ordinary single-level engines (the stack engine's
// single-pass LRU refinements and FIFO/PLRU families included) on the
// filtered stream. Grouping applies recursively, so three-level sweeps
// share L2s within an L1 group the same way.
//
// Inclusive and exclusive hierarchies need cross-level feedback
// (back-invalidation, line migration), so each one runs as its own
// fused hier.Sim unit; EngineDirect forces the same per-hierarchy shape
// for everything, serving as the naive baseline the shared-L1 plan is
// benchmarked against.
package sweep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"palmsim/internal/cache"
	"palmsim/internal/cache/hier"
	"palmsim/internal/cache/opt"
)

// hierarchiesNeedKinds reports whether any level of any hierarchy has a
// write policy. The L1's write policy alone already shapes the stream
// lower levels see, so kinds matter to the whole hierarchy.
func hierarchiesNeedKinds(hs []cache.Hierarchy) bool {
	for _, h := range hs {
		if h.NeedsKinds() {
			return true
		}
	}
	return false
}

// hierOptLineSizes returns the distinct line sizes of OPT
// configurations across the hierarchies. Validation restricts OPT to
// single-level hierarchies, so these are exactly the annotations a run
// must compute.
func hierOptLineSizes(hs []cache.Hierarchy) []int {
	seen := map[int]bool{}
	var lines []int
	for _, h := range hs {
		for _, cfg := range h.Levels {
			if cfg.Policy == cache.OPT && !seen[cfg.LineBytes] {
				seen[cfg.LineBytes] = true
				lines = append(lines, cfg.LineBytes)
			}
		}
	}
	return lines
}

// hierarchyHash fingerprints the engine choice and hierarchy set —
// every level's five configuration fields plus the content policy — for
// the checkpoint sidecar, in the same spirit as configHash.
func hierarchyHash(hs []cache.Hierarchy, eng Engine) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(eng))
	put(uint64(len(hs)))
	for _, hr := range hs {
		put(uint64(hr.Content))
		put(uint64(len(hr.Levels)))
		for _, cfg := range hr.Levels {
			put(uint64(cfg.SizeBytes))
			put(uint64(cfg.LineBytes))
			put(uint64(cfg.Ways))
			put(uint64(cfg.Policy))
			put(uint64(cfg.Write))
		}
	}
	return h.Sum64()
}

// sharedL1Unit is one shared-L1 group: the group's first level runs
// once per chunk as a miss-stream filter, and the filtered stream
// advances every inner unit — the single-level engines (or nested
// groups) simulating the members' remaining levels. The inner units
// are driven serially inside this unit; parallelism lives across
// groups, exactly like any other sweep unit.
type sharedL1Unit struct {
	stream *hier.MissStream
	inner  *hierPlan
}

func (u *sharedL1Unit) AccessAll(refs []uint32) { u.feed(refs, nil) }

func (u *sharedL1Unit) AccessAllKinded(refs []uint32, kinds []uint8) { u.feed(refs, kinds) }

func (u *sharedL1Unit) feed(refs []uint32, kinds []uint8) {
	frefs, fkinds := u.stream.Filter(refs, kinds)
	// The filtered stream always carries kinds (write-back victims and
	// write-through stores are writes); every engine unit is kinded.
	for _, ku := range u.inner.kinded {
		ku.AccessAllKinded(frefs, fkinds)
	}
}

// AppendState serializes the L1's state followed by every inner unit's,
// each length-prefixed.
func (u *sharedL1Unit) AppendState(b []byte) []byte {
	blob := u.stream.Cache().AppendState(nil)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(blob)))
	b = append(b, blob...)
	for _, iu := range u.inner.units {
		blob = iu.(stateful).AppendState(nil)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(blob)))
		b = append(b, blob...)
	}
	return b
}

// RestoreState loads state previously produced by AppendState.
func (u *sharedL1Unit) RestoreState(b []byte) error {
	restore := func(s stateful, what string) error {
		if len(b) < 4 {
			return fmt.Errorf("sweep: shared-L1 state truncated before %s", what)
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return fmt.Errorf("sweep: shared-L1 %s blob is %d bytes, want %d", what, len(b), n)
		}
		if err := s.RestoreState(b[:n]); err != nil {
			return err
		}
		b = b[n:]
		return nil
	}
	if err := restore(u.stream.Cache(), "L1"); err != nil {
		return err
	}
	for i, iu := range u.inner.units {
		if err := restore(iu.(stateful), fmt.Sprintf("inner unit %d", i)); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("sweep: %d trailing bytes in shared-L1 state", len(b))
	}
	return nil
}

// hierPlan is an instantiated hierarchy sweep: the same unit machinery
// as enginePlan, with results collected per hierarchy.
type hierPlan struct {
	*enginePlan
	collectH func() []cache.HierarchyResult
}

// buildHierarchies instantiates units for a validated hierarchy set.
// Single-level hierarchies pool into one ordinary configuration build
// (so the paper sweep as 56 one-level hierarchies plans exactly as the
// paper sweep). Multi-level non-inclusive hierarchies group by shared
// first level under the stack engine; inclusive/exclusive hierarchies —
// and every multi-level hierarchy under EngineDirect — get one fused
// hier.Sim each. anns may be nil for planning.
func buildHierarchies(hs []cache.Hierarchy, eng Engine, anns map[int]*opt.Annotation) (*hierPlan, error) {
	p := &hierPlan{enginePlan: &enginePlan{info: PlanInfo{
		Engine:     eng,
		Configs:    len(hs),
		NeedsKinds: hierarchiesNeedKinds(hs),
	}}}
	results := make([]cache.HierarchyResult, len(hs))
	var finishers []func()

	// Single-level hierarchies → one pooled configuration build.
	var singleIdx []int
	var singleCfgs []cache.Config
	// Multi-level NINE under a single-pass engine → shared-L1 groups,
	// keyed by the (comparable) L1 configuration, in first-seen order.
	groupOf := map[cache.Config]int{}
	type l1Group struct {
		l1      cache.Config
		members []int
	}
	var groups []*l1Group

	for i, h := range hs {
		if err := h.Validate(); err != nil {
			return nil, err
		}
		if p.info.MaxLevels < len(h.Levels) {
			p.info.MaxLevels = len(h.Levels)
		}
		switch {
		case len(h.Levels) == 1:
			singleIdx = append(singleIdx, i)
			singleCfgs = append(singleCfgs, h.Levels[0])
		case h.Content != cache.NonInclusive || eng == EngineDirect:
			sim, err := hier.New(h)
			if err != nil {
				return nil, err
			}
			p.units = append(p.units, sim)
			p.info.FusedHierarchies++
			idx := i
			finishers = append(finishers, func() { results[idx] = sim.Results() })
		default:
			gi, ok := groupOf[h.Levels[0]]
			if !ok {
				gi = len(groups)
				groupOf[h.Levels[0]] = gi
				groups = append(groups, &l1Group{l1: h.Levels[0]})
			}
			groups[gi].members = append(groups[gi].members, i)
		}
	}

	if len(singleCfgs) > 0 {
		sub, err := build(singleCfgs, eng, anns)
		if err != nil {
			return nil, err
		}
		p.units = append(p.units, sub.units...)
		p.info.FallbackConfigs += sub.info.FallbackConfigs
		p.info.FamilyConfigs += sub.info.FamilyConfigs
		p.info.OptConfigs += sub.info.OptConfigs
		p.info.BuffersTrace = p.info.BuffersTrace || sub.info.BuffersTrace
		idx := singleIdx
		finishers = append(finishers, func() {
			for j, r := range sub.collect() {
				results[idx[j]] = cache.HierarchyResult{Hierarchy: hs[idx[j]], Levels: []cache.Result{r}}
			}
		})
	}

	for _, g := range groups {
		l1, err := cache.New(g.l1)
		if err != nil {
			return nil, err
		}
		remainders := make([]cache.Hierarchy, len(g.members))
		for j, idx := range g.members {
			remainders[j] = cache.Hierarchy{Levels: hs[idx].Levels[1:]}
		}
		inner, err := buildHierarchies(remainders, eng, nil)
		if err != nil {
			return nil, err
		}
		for i, iu := range inner.units {
			if _, ok := iu.(stateful); !ok {
				return nil, fmt.Errorf("sweep: shared-L1 inner unit %d (%T) is not checkpointable", i, iu)
			}
			if inner.kinded[i] == nil {
				return nil, fmt.Errorf("sweep: shared-L1 inner unit %d (%T) cannot consume the kinded miss stream", i, iu)
			}
		}
		u := &sharedL1Unit{stream: hier.NewMissStream(l1), inner: inner}
		p.units = append(p.units, u)
		p.info.SharedL1Groups++
		p.info.SharedL1Groups += inner.info.SharedL1Groups
		p.info.FallbackConfigs += inner.info.FallbackConfigs
		p.info.FamilyConfigs += inner.info.FamilyConfigs
		members := g.members
		finishers = append(finishers, func() {
			l1res := l1.Result()
			for j, hr := range inner.collectH() {
				idx := members[j]
				levels := append([]cache.Result{l1res}, hr.Levels...)
				results[idx] = cache.HierarchyResult{Hierarchy: hs[idx], Levels: levels}
			}
		})
	}

	p.info.Units = len(p.units)
	p.kinded = make([]kindedUnit, len(p.units))
	for i, u := range p.units {
		if ku, ok := u.(kindedUnit); ok {
			p.kinded[i] = ku
		}
	}
	p.collectH = func() []cache.HierarchyResult {
		for _, fin := range finishers {
			fin()
		}
		return results
	}
	// enginePlan.collect flattens every level's counters in hierarchy
	// order, which is what the sweep-wide obs aggregates sum over.
	p.collect = func() []cache.Result {
		var out []cache.Result
		for _, hr := range p.collectH() {
			out = append(out, hr.Levels...)
		}
		return out
	}
	return p, nil
}

// PlanHierarchies reports how a hierarchy set would execute — engine,
// unit count, shared-L1 grouping, fused hierarchies, OPT presence —
// without touching a trace.
func PlanHierarchies(opts Options, hs []cache.Hierarchy) (PlanInfo, error) {
	p, err := buildHierarchies(hs, opts.engine(), nil)
	if err != nil {
		return PlanInfo{}, err
	}
	return p.info, nil
}

// RunHierarchies sweeps every hierarchy over the trace from src and
// returns results in hierarchy order. Semantics mirror Run:
// cancellation within one chunk, checkpoint/resume via the sidecar
// (fingerprinted over the hierarchy set), deterministic results for any
// worker count, and bit-identity of single-level hierarchies with the
// plain configuration sweep.
func RunHierarchies(ctx context.Context, hs []cache.Hierarchy, src Source, opts Options) ([]cache.HierarchyResult, error) {
	for _, h := range hs {
		if err := h.Validate(); err != nil {
			return nil, err
		}
	}
	var ks KindedSource
	if hierarchiesNeedKinds(hs) {
		var ok bool
		if ks, ok = src.(KindedSource); !ok {
			return nil, fmt.Errorf("sweep: hierarchies use write policies but source %T carries no access kinds", src)
		}
	}
	var anns map[int]*opt.Annotation
	if lines := hierOptLineSizes(hs); len(lines) > 0 {
		trace, kinds, err := materialize(ctx, src, ks, opts.chunkRefs())
		if err != nil {
			return nil, err
		}
		anns, err = opt.AnnotateAll(trace, lines)
		if err != nil {
			return nil, err
		}
		if ks != nil {
			kss := NewKindedSliceSource(trace, kinds)
			src, ks = kss, kss
		} else {
			src = NewSliceSource(trace)
		}
	}
	p, err := buildHierarchies(hs, opts.engine(), anns)
	if err != nil {
		return nil, err
	}
	if err := runEngine(ctx, p.enginePlan, src, ks, opts, hierarchyHash(hs, opts.engine())); err != nil {
		return nil, err
	}
	results := p.collectH()
	registerResults(opts.Obs, p.collect())
	return results, nil
}

// RunTraceHierarchies is a convenience wrapper over an in-memory trace
// with per-reference access kinds.
func RunTraceHierarchies(ctx context.Context, hs []cache.Hierarchy, trace []uint32, kinds []uint8, opts Options) ([]cache.HierarchyResult, error) {
	return RunHierarchies(ctx, hs, NewKindedSliceSource(trace, kinds), opts)
}

// DescribeHierarchies renders the hierarchy plan for logs and CLIs.
func DescribeHierarchies(opts Options, hs []cache.Hierarchy) string {
	info, err := PlanHierarchies(opts, hs)
	if err != nil {
		return fmt.Sprintf("%s engine (invalid hierarchy set: %v)", opts.engine(), err)
	}
	s := fmt.Sprintf("%s engine: %d workers over %d units (%d hierarchies, max %d levels), %d refs/chunk",
		info.Engine, opts.workers(info.Units), info.Units, info.Configs, info.MaxLevels, opts.chunkRefs())
	if info.SharedL1Groups > 0 {
		s += fmt.Sprintf(", %d shared-L1 groups", info.SharedL1Groups)
	}
	if info.FusedHierarchies > 0 {
		s += fmt.Sprintf(", %d fused hierarchies", info.FusedHierarchies)
	}
	if info.FamilyConfigs > 0 {
		s += fmt.Sprintf(", %d family configs", info.FamilyConfigs)
	}
	if info.FallbackConfigs > 0 {
		s += fmt.Sprintf(", %d direct-fallback configs", info.FallbackConfigs)
	}
	if info.OptConfigs > 0 {
		s += fmt.Sprintf(", %d OPT configs (trace buffered for annotation)", info.OptConfigs)
	}
	if info.NeedsKinds {
		s += ", kinded"
	}
	return s
}
