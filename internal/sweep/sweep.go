// Package sweep runs cache-configuration sweeps concurrently over a
// streaming memory-reference trace. The paper's §4 case study simulates
// 56 configurations over traces of hundreds of millions of references;
// the sweep is embarrassingly parallel across simulation units, so a
// single trace producer publishes fixed-size reference chunks to a pool
// of workers, each worker drives its shard of units, and results are
// collected in configuration order regardless of completion order.
//
// Two engines provide the units. The direct engine simulates one
// cache.Cache per configuration — 56 independent caches. The stack
// engine (internal/cache/stack) exploits the LRU inclusion property to
// collapse all configurations sharing a (line size, set count) geometry
// into one single-pass refinement, and runs all refinements of one line
// size as one unit behind a shared stage-1 filter — 2 units for the
// paper sweep, so LRU parallelism is per line size (more cores than line
// sizes buys the LRU grid nothing). It serves FIFO and PLRU through
// single-pass per-line-size families, and falls back to direct
// simulation only for Random (private PRNG state).
// OPT (Belady) configurations are served by internal/cache/opt under
// either engine: Run materializes the trace, computes the per-line-size
// next-use annotation, and then streams the buffered trace through the
// normal fan-out, so checkpointing and cancellation both compose with
// OPT unchanged. Every unit still observes the full trace
// in order, so both engines produce results bit-identical to the serial
// cache.Sweep loop for any worker count — determinism is an invariant
// here, not a best effort.
//
// Write-policy accounting needs to know which references are writes, so
// when any configuration sets a write policy the sweep runs in kinded
// mode: the source must implement KindedSource, chunks carry a parallel
// kind byte per reference, and every unit consumes the kinded entry
// point. Address-only sweeps are untouched — no kind buffers exist and
// the hot paths are the same as before.
package sweep

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"palmsim/internal/cache"
	"palmsim/internal/cache/opt"
	"palmsim/internal/cache/stack"
	"palmsim/internal/obs"
	"palmsim/internal/simerr"
)

// Source streams a reference trace in chunks, so traces never need to be
// fully materialized. NextChunk fills buf with up to len(buf) references
// and returns how many it wrote. End of trace is signalled either by
// n == 0 with a nil error, or by err == io.EOF (with or without final
// references in the same call) — consumers honor both, and any other
// error aborts the sweep. Implementations include SliceSource here,
// dtrace.Stream (the synthetic desktop generator), dtrace.PackedSource
// (the packed binary trace format) and the .trace/din file readers in
// internal/exp.
type Source interface {
	NextChunk(buf []uint32) (n int, err error)
}

// SliceSource adapts a fully materialized trace (e.g. one collected by a
// replay) to the Source interface.
type SliceSource struct {
	trace []uint32
	pos   int
}

// NewSliceSource wraps an in-memory trace.
func NewSliceSource(trace []uint32) *SliceSource {
	return &SliceSource{trace: trace}
}

// NextChunk copies the next run of references into buf. At the end of
// the trace — including a zero-length trace — it returns (0, nil) on
// every call, never an error.
func (s *SliceSource) NextChunk(buf []uint32) (int, error) {
	n := copy(buf, s.trace[s.pos:])
	s.pos += n
	return n, nil
}

// KindedSource is a Source that also knows each reference's access kind
// (cache.KindFetch/KindRead/KindWrite). Both methods advance the same
// stream position, so a consumer may mix them — resume's skipRefs uses
// the address-only path even on kinded sweeps. Write-policy sweeps
// require a KindedSource; address-only sources are rejected with a
// clear error rather than silently treating every reference as a read.
type KindedSource interface {
	Source
	// NextChunkKinded fills refs and kinds in lockstep with up to
	// min(len(refs), len(kinds)) references and returns how many it
	// wrote. End-of-trace signalling matches NextChunk.
	NextChunkKinded(refs []uint32, kinds []uint8) (n int, err error)
}

// KindedSliceSource adapts a fully materialized trace with per-reference
// access kinds to the KindedSource interface.
type KindedSliceSource struct {
	trace []uint32
	kinds []uint8
	pos   int
}

// NewKindedSliceSource wraps an in-memory trace and its parallel kind
// array; the streams are clamped to the shorter of the two.
func NewKindedSliceSource(trace []uint32, kinds []uint8) *KindedSliceSource {
	if len(kinds) < len(trace) {
		trace = trace[:len(kinds)]
	} else {
		kinds = kinds[:len(trace)]
	}
	return &KindedSliceSource{trace: trace, kinds: kinds}
}

// NextChunk copies addresses only, advancing the shared position.
func (s *KindedSliceSource) NextChunk(buf []uint32) (int, error) {
	n := copy(buf, s.trace[s.pos:])
	s.pos += n
	return n, nil
}

// NextChunkKinded copies the next run of (address, kind) pairs.
func (s *KindedSliceSource) NextChunkKinded(refs []uint32, kinds []uint8) (int, error) {
	if len(kinds) < len(refs) {
		refs = refs[:len(kinds)]
	}
	n := copy(refs, s.trace[s.pos:])
	copy(kinds[:n], s.kinds[s.pos:s.pos+n])
	s.pos += n
	return n, nil
}

// DefaultChunkRefs is the number of references per published chunk
// (256 KiB of addresses): large enough to amortize channel traffic,
// small enough to keep every shard's working chunk in cache.
const DefaultChunkRefs = 1 << 16

// queueDepth bounds the per-worker channel, which in turn bounds the
// memory high-water mark to O(workers · queueDepth · chunk) regardless of
// trace length.
const queueDepth = 2

// Engine selects the simulation algorithm.
type Engine int

const (
	// EngineAuto (the zero value) selects the stack engine: the fastest
	// choice, and bit-identical to direct simulation by construction.
	EngineAuto Engine = iota
	// EngineDirect simulates every configuration with its own
	// cache.Cache — the reference algorithm, kept for cross-validation
	// and A/B benchmarking.
	EngineDirect
	// EngineStack runs the single-pass all-associativity engine for LRU
	// configurations and falls back to direct simulation per non-LRU
	// configuration.
	EngineStack
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineDirect:
		return "direct"
	case EngineStack:
		return "stack"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Options tunes the engine.
type Options struct {
	// Workers is the number of concurrent simulation workers. Zero or
	// negative selects GOMAXPROCS; 1 selects the serial fallback, which
	// produces exactly the same results (and is what cache.Sweep did).
	// Workers above the engine's unit count are clamped.
	Workers int
	// ChunkRefs is the number of references per chunk; zero or negative
	// selects DefaultChunkRefs.
	ChunkRefs int
	// Engine selects the simulation algorithm; the zero value
	// (EngineAuto) selects the single-pass stack engine.
	Engine Engine
	// Obs, when non-nil, receives sweep progress counters (chunks, refs,
	// per-worker completions, queue depth) and post-run cache aggregates.
	// Nil (the default) adds no allocations and no atomic traffic.
	Obs *obs.Registry

	// CheckpointPath, when non-empty, enables checkpointing: every
	// CheckpointEveryChunks chunks (and on cancellation) the engine
	// quiesces its workers and atomically writes every unit's
	// aggregation state plus the consumed-reference count to this
	// sidecar file. A sweep that dies — SIGKILL, power loss, a
	// deliberate cancel — resumes from the sidecar via Resume and
	// produces results bit-identical to an uninterrupted run. The file
	// is removed when the sweep completes.
	CheckpointPath string
	// CheckpointEveryChunks is the checkpoint cadence in produced
	// chunks; zero or negative selects DefaultCheckpointEveryChunks.
	CheckpointEveryChunks int
	// Resume, with CheckpointPath set, loads an existing sidecar before
	// sweeping: unit states are restored and the already-consumed
	// prefix of the trace is skipped. A missing sidecar starts from
	// scratch; a sidecar written by a different configuration set or
	// engine fails with simerr.ErrBadCheckpoint.
	Resume bool
}

func (o Options) workers(nunits int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nunits {
		w = nunits
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) chunkRefs() int {
	if o.ChunkRefs <= 0 {
		return DefaultChunkRefs
	}
	return o.ChunkRefs
}

func (o Options) engine() Engine {
	if o.Engine == EngineAuto {
		return EngineStack
	}
	return o.Engine
}

// unit is one independently advanceable simulation shard: a direct
// cache.Cache, a stack-engine line-size group or family, or an OPT family.
// No unit is ever touched by two goroutines, and each observes the
// complete trace in order.
type unit interface {
	AccessAll(refs []uint32)
}

// kindedUnit is a unit that can consume (address, kind) chunks; every
// engine unit implements it, which the kinded-mode check in Run
// enforces once up front rather than per chunk.
type kindedUnit interface {
	AccessAllKinded(refs []uint32, kinds []uint8)
}

// PlanInfo summarizes how a configuration set maps onto engine units —
// in particular, which configurations fall back to per-config direct
// simulation inside the stack engine (satellite observability: the
// fallback is visible in sweep metrics and run manifests, never
// silent).
type PlanInfo struct {
	// Engine is the resolved engine (never EngineAuto).
	Engine Engine
	// Configs is the number of swept configurations.
	Configs int
	// Units is the number of independently advanceable shards.
	Units int
	// FallbackConfigs counts configurations the stack engine serves by
	// per-config direct simulation because no single-pass algorithm
	// exists for their policy (currently: Random). Always zero under
	// EngineDirect, where direct simulation is the point.
	FallbackConfigs int
	// FamilyConfigs counts configurations served by single-pass FIFO or
	// PLRU families in the stack engine.
	FamilyConfigs int
	// OptConfigs counts OPT (Belady) configurations, served by the
	// internal/cache/opt engines under either Engine setting.
	OptConfigs int
	// NeedsKinds reports whether any configuration's write policy
	// requires a kind-carrying source.
	NeedsKinds bool
	// BuffersTrace reports whether Run materializes the whole trace in
	// memory first — required by OPT's backward next-use pass.
	BuffersTrace bool

	// Hierarchy-sweep structure (zero for single-level sweeps).
	// SharedL1Groups counts groups of multi-level non-inclusive
	// hierarchies whose identical first level is simulated once, its
	// filtered miss stream fanned out to every candidate lower level.
	SharedL1Groups int
	// FusedHierarchies counts hierarchies served by one fused
	// per-hierarchy simulator (inclusive/exclusive content policies,
	// which need cross-level feedback, and everything under
	// EngineDirect).
	FusedHierarchies int
	// MaxLevels is the deepest hierarchy in the sweep (1 for plain
	// configuration sweeps).
	MaxLevels int
}

// enginePlan is an instantiated engine: its units, their kinded faces
// (aligned with units; nil entries mean address-only), the
// configuration-order result collector, and the structural summary.
type enginePlan struct {
	units   []unit
	kinded  []kindedUnit
	collect func() []cache.Result
	info    PlanInfo
}

// needsKinds reports whether any configuration's write policy needs
// per-reference access kinds.
func needsKinds(cfgs []cache.Config) bool {
	for _, cfg := range cfgs {
		if cfg.Write != cache.WriteIgnore {
			return true
		}
	}
	return false
}

// optLineSizes returns the distinct line sizes of OPT configurations,
// i.e. the annotations a run must compute.
func optLineSizes(cfgs []cache.Config) []int {
	seen := map[int]bool{}
	var lines []int
	for _, cfg := range cfgs {
		if cfg.Policy == cache.OPT && !seen[cfg.LineBytes] {
			seen[cfg.LineBytes] = true
			lines = append(lines, cfg.LineBytes)
		}
	}
	return lines
}

// build instantiates the selected engine's units and a collector that
// assembles results in configuration order after the trace has drained.
// OPT configurations are split out and served by internal/cache/opt
// (per-config direct simulators under EngineDirect, per-line-size
// families otherwise); anns may be nil for planning, in which case the
// OPT units are constructed but must not be advanced.
func build(cfgs []cache.Config, eng Engine, anns map[int]*opt.Annotation) (*enginePlan, error) {
	p := &enginePlan{info: PlanInfo{Engine: eng, Configs: len(cfgs), NeedsKinds: needsKinds(cfgs)}}
	var optIdx, restIdx []int
	var optCfgs, restCfgs []cache.Config
	for i, cfg := range cfgs {
		if cfg.Policy == cache.OPT {
			optIdx = append(optIdx, i)
			optCfgs = append(optCfgs, cfg)
		} else {
			restIdx = append(restIdx, i)
			restCfgs = append(restCfgs, cfg)
		}
	}
	p.info.OptConfigs = len(optCfgs)
	p.info.BuffersTrace = len(optCfgs) > 0

	var collectRest, collectOpt func() []cache.Result
	if eng == EngineDirect {
		caches := make([]*cache.Cache, len(restCfgs))
		for i, cfg := range restCfgs {
			c, err := cache.New(cfg)
			if err != nil {
				return nil, err
			}
			caches[i] = c
			p.units = append(p.units, c)
		}
		collectRest = func() []cache.Result {
			out := make([]cache.Result, len(caches))
			for i, c := range caches {
				out[i] = c.Result()
			}
			return out
		}
	} else {
		se, err := stack.New(restCfgs)
		if err != nil {
			return nil, err
		}
		for _, u := range se.Units() {
			p.units = append(p.units, u)
		}
		p.info.FallbackConfigs = se.FallbackConfigs()
		p.info.FamilyConfigs = se.FamilyConfigs()
		collectRest = se.Results
	}
	if len(optCfgs) > 0 {
		if eng == EngineDirect {
			directs := make([]*opt.DirectCache, len(optCfgs))
			for i, cfg := range optCfgs {
				var ann *opt.Annotation
				if anns != nil {
					ann = anns[cfg.LineBytes]
				}
				d, err := opt.NewDirect(cfg, ann)
				if err != nil {
					return nil, err
				}
				directs[i] = d
				p.units = append(p.units, d)
			}
			collectOpt = func() []cache.Result {
				out := make([]cache.Result, len(directs))
				for i, d := range directs {
					out[i] = d.Result()
				}
				return out
			}
		} else {
			oe, err := opt.NewEngine(optCfgs, anns)
			if err != nil {
				return nil, err
			}
			for _, f := range oe.Families() {
				p.units = append(p.units, f)
			}
			collectOpt = oe.Results
		}
	}
	p.info.Units = len(p.units)
	p.kinded = make([]kindedUnit, len(p.units))
	for i, u := range p.units {
		if ku, ok := u.(kindedUnit); ok {
			p.kinded[i] = ku
		}
	}
	p.collect = func() []cache.Result {
		out := make([]cache.Result, len(cfgs))
		for j, r := range collectRest() {
			out[restIdx[j]] = r
		}
		if collectOpt != nil {
			for j, r := range collectOpt() {
				out[optIdx[j]] = r
			}
		}
		return out
	}
	return p, nil
}

// Plan reports how a configuration set would be executed — engine,
// unit count, single-pass family coverage, direct fallbacks, OPT
// presence, and whether a kinded source or trace buffering is needed —
// without touching a trace. CLIs surface this so the stack engine's
// per-config direct fallback is never a silent performance cliff.
func Plan(opts Options, cfgs []cache.Config) (PlanInfo, error) {
	p, err := build(cfgs, opts.engine(), nil)
	if err != nil {
		return PlanInfo{}, err
	}
	return p.info, nil
}

// chunk is one block of references broadcast to every worker. kinds is
// nil on address-only sweeps and exactly parallel to refs on kinded
// ones. pending counts the workers that have not finished with it yet;
// the last one returns the chunk to the free list.
type chunk struct {
	refs    []uint32
	kinds   []uint8
	pending int32
}

// ctxErr polls an optional context: nil contexts never cancel, so
// callers that have no lifecycle to manage pass nil and pay one compare
// per chunk.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Run streams the trace from src through every configuration and returns
// the results in configuration order. The context is polled at every
// chunk boundary: cancelling it stops the sweep within one chunk, shuts
// every worker down without leaking a goroutine, writes a final
// checkpoint when checkpointing is enabled, and returns a
// simerr.ErrCanceled error with the failing chunk attached. A nil ctx
// never cancels.
func Run(ctx context.Context, cfgs []cache.Config, src Source, opts Options) ([]cache.Result, error) {
	var ks KindedSource
	if needsKinds(cfgs) {
		var ok bool
		if ks, ok = src.(KindedSource); !ok {
			return nil, fmt.Errorf("sweep: configurations use write policies but source %T carries no access kinds", src)
		}
	}
	// OPT needs the whole trace up front: the backward next-use pass
	// cannot stream. Materialize once, annotate per line size, and swap
	// in a slice source so the rest of the machinery — checkpointing,
	// resume's skipRefs, the worker fan-out — runs unchanged.
	var anns map[int]*opt.Annotation
	if lines := optLineSizes(cfgs); len(lines) > 0 {
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
	p, err := build(cfgs, opts.engine(), anns)
	if err != nil {
		return nil, err
	}
	if err := runEngine(ctx, p, src, ks, opts, configHash(cfgs, opts.engine())); err != nil {
		return nil, err
	}
	results := p.collect()
	registerResults(opts.Obs, results)
	return results, nil
}

// runEngine drives an instantiated plan's units over the trace: the
// kinded-capability check, checkpointer setup and resume skip, plan
// observability, the serial or parallel fan-out, and sidecar removal on
// success. It is shared by the configuration sweep (Run) and the
// hierarchy sweep (RunHierarchies), which differ only in how units are
// built and results collected; hash fingerprints whatever was built so
// a sidecar never resumes a different sweep.
func runEngine(ctx context.Context, p *enginePlan, src Source, ks KindedSource, opts Options, hash uint64) error {
	if ks != nil {
		for i, ku := range p.kinded {
			if ku == nil {
				return fmt.Errorf("sweep: unit %d (%T) cannot consume kinded chunks", i, p.units[i])
			}
		}
	}
	var ck *checkpointer
	var err error
	if opts.CheckpointPath != "" {
		ck, err = newCheckpointer(opts.CheckpointPath, opts.checkpointEvery(), p.units, hash)
		if err != nil {
			return err
		}
		if opts.Resume {
			skip, found, err := ck.load()
			if err != nil {
				return err
			}
			if found && skip > 0 {
				if err := skipRefs(ctx, src, skip, opts.chunkRefs()); err != nil {
					return err
				}
			}
		}
	}
	registerPlan(opts.Obs, p.info)
	if len(p.units) == 0 {
		// Still drain the source so an erroring trace is reported.
		return drain(ctx, src, opts.chunkRefs())
	}

	w := opts.workers(len(p.units))
	m := newObsMetrics(opts.Obs, w, len(p.units))
	if w == 1 {
		err = runSerial(ctx, p, src, ks, opts.chunkRefs(), m, ck)
	} else {
		err = runParallel(ctx, p, src, ks, w, opts.chunkRefs(), m, ck)
	}
	if err != nil {
		return err
	}
	if ck != nil {
		ck.removeSidecar()
	}
	return nil
}

// materialize drains src into memory, returning the full trace and —
// when ks is non-nil — its parallel kind array. Slice-backed sources
// short-circuit to their remaining backing arrays without copying.
func materialize(ctx context.Context, src Source, ks KindedSource, chunkRefs int) ([]uint32, []uint8, error) {
	switch s := src.(type) {
	case *SliceSource:
		t := s.trace[s.pos:]
		s.pos = len(s.trace)
		return t, nil, nil
	case *KindedSliceSource:
		t, k := s.trace[s.pos:], s.kinds[s.pos:]
		s.pos = len(s.trace)
		return t, k, nil
	}
	var trace []uint32
	var kinds []uint8
	buf := make([]uint32, chunkRefs)
	var kbuf []uint8
	if ks != nil {
		kbuf = make([]uint8, chunkRefs)
	}
	var produced int64
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, nil, simerr.CanceledChunk(ctx, "sweep: materialize", produced)
		}
		var n int
		var err error
		if ks != nil {
			n, err = ks.NextChunkKinded(buf, kbuf)
		} else {
			n, err = src.NextChunk(buf)
		}
		if err != nil && err != io.EOF {
			return nil, nil, err
		}
		trace = append(trace, buf[:n]...)
		if ks != nil {
			kinds = append(kinds, kbuf[:n]...)
		}
		produced++
		if n == 0 || err == io.EOF {
			return trace, kinds, nil
		}
	}
}

// RunTrace is a convenience wrapper over an in-memory trace.
func RunTrace(ctx context.Context, cfgs []cache.Config, trace []uint32, opts Options) ([]cache.Result, error) {
	return Run(ctx, cfgs, NewSliceSource(trace), opts)
}

// RunTraceKinded is a convenience wrapper over an in-memory trace with
// per-reference access kinds.
func RunTraceKinded(ctx context.Context, cfgs []cache.Config, trace []uint32, kinds []uint8, opts Options) ([]cache.Result, error) {
	return Run(ctx, cfgs, NewKindedSliceSource(trace, kinds), opts)
}

// saveOnCancel writes a final checkpoint when a run stopped on
// cancellation, so the canceled sweep resumes exactly where it left off.
// Called only after every produced chunk has been fully consumed.
func saveOnCancel(ck *checkpointer, m *obsMetrics, runErr error) error {
	if ck == nil || runErr == nil || !simerr.IsCanceled(runErr) {
		return nil
	}
	if err := ck.save(); err != nil {
		return err
	}
	m.checkpointed()
	return nil
}

// runSerial is the workers=1 fallback: one goroutine, one chunk buffer,
// the same chunked access pattern as the parallel path. A non-nil ks
// selects kinded mode.
func runSerial(ctx context.Context, p *enginePlan, src Source, ks KindedSource, chunkRefs int, m *obsMetrics, ck *checkpointer) error {
	buf := make([]uint32, chunkRefs)
	var kbuf []uint8
	if ks != nil {
		kbuf = make([]uint8, chunkRefs)
	}
	var produced int64
	for {
		if err := ctxErr(ctx); err != nil {
			cerr := simerr.CanceledChunk(ctx, "sweep: run", produced)
			if serr := saveOnCancel(ck, m, cerr); serr != nil {
				return serr
			}
			return cerr
		}
		var n int
		var err error
		if ks != nil {
			n, err = ks.NextChunkKinded(buf, kbuf)
		} else {
			n, err = src.NextChunk(buf)
		}
		if err != nil && err != io.EOF {
			return err
		}
		if n > 0 {
			m.produced(n)
			refs := buf[:n]
			if ks != nil {
				kinds := kbuf[:n]
				for _, u := range p.kinded {
					u.AccessAllKinded(refs, kinds)
				}
			} else {
				for _, u := range p.units {
					u.AccessAll(refs)
				}
			}
			m.workerDone(0, len(p.units))
			m.retired()
			produced++
			if ck != nil {
				ck.consumed(n)
				if ck.due() {
					if err := ck.save(); err != nil {
						return err
					}
					m.checkpointed()
				}
			}
		}
		if n == 0 || err == io.EOF {
			return nil
		}
	}
}

// runParallel fans chunks out to per-worker queues. Each worker owns a
// contiguous shard of the units, so no unit is ever touched by two
// goroutines and the per-unit access order is the trace order. The
// producer polls ctx between chunks; on cancellation (or any read
// error) it stops producing, closes the queues, and waits for the
// workers to drain what was already published — bounded by
// workers·queueDepth chunks — so no goroutine or pooled buffer leaks.
func runParallel(ctx context.Context, p *enginePlan, src Source, ks KindedSource, workers, chunkRefs int, m *obsMetrics, ck *checkpointer) error {
	units := p.units
	// Retired chunks go back to the producer through a free list sized
	// for every chunk that can be alive at once: the slowest worker's
	// current chunk and queued ones plus the producer's. (A sync.Pool
	// parks the last buffer a worker returns in that worker's per-P
	// slot, out of the producer's reach, so it allocated one more.)
	free := make(chan *chunk, queueDepth+2)
	queues := make([]chan *chunk, workers)
	for w := range queues {
		queues[w] = make(chan *chunk, queueDepth)
	}

	// workerWG tracks worker goroutines; inflight tracks published
	// chunks not yet retired by every worker, which is what a
	// checkpoint must wait out to observe quiescent units.
	var workerWG, inflight sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(units) / workers
		hi := (w + 1) * len(units) / workers
		shard := units[lo:hi]
		kshard := p.kinded[lo:hi]
		q := queues[w]
		wid := w
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for ck := range q {
				if ck.kinds != nil {
					for _, u := range kshard {
						u.AccessAllKinded(ck.refs, ck.kinds)
					}
				} else {
					for _, u := range shard {
						u.AccessAll(ck.refs)
					}
				}
				m.workerDone(wid, len(shard))
				if atomic.AddInt32(&ck.pending, -1) == 0 {
					m.retired()
					select {
					case free <- ck:
					default:
					}
					inflight.Done()
				}
			}
		}()
	}

	var runErr error
	var produced int64
	for {
		if err := ctxErr(ctx); err != nil {
			runErr = simerr.CanceledChunk(ctx, "sweep: produce", produced)
			break
		}
		var c *chunk
		select {
		case c = <-free:
		default:
			c = &chunk{refs: make([]uint32, chunkRefs)}
			if ks != nil {
				c.kinds = make([]uint8, chunkRefs)
			}
		}
		c.refs = c.refs[:chunkRefs]
		var n int
		var err error
		if ks != nil {
			c.kinds = c.kinds[:chunkRefs]
			n, err = ks.NextChunkKinded(c.refs, c.kinds)
		} else {
			n, err = src.NextChunk(c.refs)
		}
		eof := err == io.EOF
		if err != nil && !eof {
			runErr = err
			break
		}
		if n == 0 {
			break
		}
		c.refs = c.refs[:n]
		if ks != nil {
			c.kinds = c.kinds[:n]
		}
		c.pending = int32(workers)
		m.produced(n)
		inflight.Add(1)
		for _, q := range queues {
			q <- c
		}
		produced++
		if ck != nil {
			ck.consumed(n)
			if ck.due() {
				inflight.Wait() // quiesce: every published chunk retired
				if err := ck.save(); err != nil {
					runErr = err
					break
				}
				m.checkpointed()
			}
		}
		if eof {
			break
		}
	}
	for _, q := range queues {
		close(q)
	}
	workerWG.Wait()
	if serr := saveOnCancel(ck, m, runErr); serr != nil {
		return serr
	}
	return runErr
}

// drain consumes a source to completion, surfacing any read error.
func drain(ctx context.Context, src Source, chunkRefs int) error {
	buf := make([]uint32, chunkRefs)
	var produced int64
	for {
		if err := ctxErr(ctx); err != nil {
			return simerr.CanceledChunk(ctx, "sweep: drain", produced)
		}
		n, err := src.NextChunk(buf)
		if err != nil && err != io.EOF {
			return err
		}
		if n == 0 || err == io.EOF {
			return nil
		}
		produced++
	}
}

// Describe renders the engine configuration for logs and CLIs,
// including any per-config direct fallbacks so they are never silent.
func Describe(opts Options, cfgs []cache.Config) string {
	info, err := Plan(opts, cfgs)
	if err != nil {
		return fmt.Sprintf("%s engine (invalid configuration: %v)", opts.engine(), err)
	}
	s := fmt.Sprintf("%s engine: %d workers over %d units (%d configurations), %d refs/chunk",
		info.Engine, opts.workers(info.Units), info.Units, info.Configs, opts.chunkRefs())
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
