package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"palmsim/internal/bus"
	"palmsim/internal/cache"
	"palmsim/internal/dtrace"
	"palmsim/internal/energy"
	"palmsim/internal/exp"
	"palmsim/internal/hotsync"
	"palmsim/internal/report"
	"palmsim/internal/sim"
	"palmsim/internal/sweep"
	"palmsim/internal/user"
	"palmsim/internal/validate"
)

// runner is a prepared workload: run executes one pass of its pipeline.
type runner interface {
	run(p *pass) error
}

// finalChecker is a runner with once-per-run checks that run after the
// timed passes, because their memory would otherwise linger in the
// first pass's heap.
type finalChecker interface {
	finalCheck(ctx context.Context) error
}

// workload names one seeded input set. prepare builds the inputs; when
// warm is set, set-up also runs one pass with checks off, because the
// workload's only set-up work is warming the process.
type workload struct {
	name    string
	warm    bool
	prepare func(ctx context.Context, seed int64) (runner, error)
}

var workloads = []workload{
	{name: "paper-pipeline", warm: true, prepare: preparePaper},
	{name: "design-sweep", prepare: prepareDesign},
	{name: "replay-validate", warm: true, prepare: prepareValidate},
}

// seeded replaces each session's fixed seed with one derived from the
// benchmark seed and the session's name, so a session has the same
// inputs in every workload of one seed. Seed 0 keeps the fixed seeds.
func seeded(ss []user.Session, seed int64) []user.Session {
	if seed == 0 {
		return ss
	}
	out := append([]user.Session(nil), ss...)
	for i := range out {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", seed, out[i].Name)
		out[i].Seed = int64(h.Sum64() >> 1)
	}
	return out
}

func teffInfo(name string, b bus.Stats) string {
	return fmt.Sprintf("%s no-cache Teff %.3f cycles (paper 2.35; information, not a gate)",
		name, cache.NoCacheTeff(b.RAMRefs, b.FlashRefs))
}

// --- paper-pipeline -----------------------------------------------------

// paperPipeline is the paper's product run end to end: every Table 1
// session is collected, replayed with trace and kinds on, packed to
// PALMPKD1, stream-decoded into the 56-configuration LRU sweep, and the
// sessions are rendered as Table 1 and Figures 5 and 6.
type paperPipeline struct {
	sessions []user.Session
	cfgs     []cache.Config
	units    int
}

func preparePaper(ctx context.Context, seed int64) (runner, error) {
	cfgs := cache.PaperSweep()
	plan, err := sweep.Plan(sweep.Options{}, cfgs)
	if err != nil {
		return nil, err
	}
	return &paperPipeline{sessions: seeded(sim.PaperSessions(), seed), cfgs: cfgs, units: plan.Units}, nil
}

type sessionStudy struct {
	name    string
	log     *sim.Log
	bus     bus.Stats
	results []cache.Result
}

func (w *paperPipeline) run(p *pass) error {
	ctx := p.ctx
	p.counts["sweep.lru.units"] = float64(w.units)
	var studies []sessionStudy
	for i, s := range w.sessions {
		var col *sim.Collection
		if err := p.layer("sim.collect", func() (err error) {
			col, err = sim.Collect(ctx, s)
			if err == nil {
				col.Release()
			}
			return err
		}); err != nil {
			return fmt.Errorf("collect %s: %w", s.Name, err)
		}
		opts := sim.DefaultReplayOptions()
		opts.CollectKinds = true
		var pb *sim.Playback
		if err := p.layer("sim.replay", func() (err error) {
			pb, err = sim.Replay(ctx, col.Initial, col.Log, opts)
			if err == nil {
				pb.Release()
			}
			return err
		}); err != nil {
			return fmt.Errorf("replay %s: %w", s.Name, err)
		}
		var packed []byte
		if err := p.layer("dtrace.pack", func() (err error) {
			packed, err = dtrace.PackTrace(pb.Trace, pb.TraceKinds)
			return err
		}); err != nil {
			return fmt.Errorf("pack %s: %w", s.Name, err)
		}
		var res []cache.Result
		if err := p.layer("sweep.lru", func() error {
			src, err := p.open(packed)
			if err != nil {
				return err
			}
			res, err = sweep.Run(ctx, w.cfgs, src, sweep.Options{})
			return err
		}); err != nil {
			return fmt.Errorf("sweep %s: %w", s.Name, err)
		}

		refs := float64(len(pb.Trace))
		p.count("refs", refs)
		p.count("sim.collect.events", float64(col.Log.Len()))
		p.count("sim.replay.instr", float64(pb.Stats.Machine.Instructions))
		p.count("sim.replay.refs", float64(pb.Stats.Bus.TotalRefs()))
		p.count("dtrace.pack.refs", refs)
		p.count("dtrace.pack.bytes", float64(len(packed)))
		p.count("sweep.lru.refcfgs", refs*float64(len(w.cfgs)))
		studies = append(studies, sessionStudy{name: s.Name, log: col.Log, bus: pb.Stats.Bus, results: res})

		if err := p.check(func() error {
			return w.checkSession(p, i, s.Name, col.Initial, pb, packed, res)
		}); err != nil {
			return err
		}
	}
	var text string
	if err := p.layer("report", func() error {
		text = paperReport(studies)
		return nil
	}); err != nil {
		return err
	}
	return p.check(func() error {
		p.hashBytes([]byte(text))
		return nil
	})
}

func (w *paperPipeline) checkSession(p *pass, i int, name string, initial *hotsync.State, pb *sim.Playback, packed []byte, res []cache.Result) error {
	refs := uint64(len(pb.Trace))
	if len(pb.TraceKinds) != len(pb.Trace) {
		return fmt.Errorf("%s: replay recorded %d kinds for %d refs", name, len(pb.TraceKinds), len(pb.Trace))
	}
	if err := checkResults("sweep.lru "+name, w.cfgs, res, refs); err != nil {
		return err
	}
	prefix, err := replayPrefix(initial)
	if err != nil {
		return fmt.Errorf("%s: prefix oracle: %w", name, err)
	}
	if err := checkSplit(name, res[0], pb.Stats.Bus, prefix); err != nil {
		return err
	}
	if err := checkSample("sweep.lru "+name, res[sampleIndex(p.n, i, len(res))], pb.Trace, nil); err != nil {
		return err
	}
	p.hashU32(pb.Trace)
	p.hashBytes(pb.TraceKinds)
	p.hashBytes(packed)
	p.hashValue(res)
	p.hashValue(pb.Stats.Bus)
	if p.n == 0 {
		p.info = append(p.info, teffInfo(name, pb.Stats.Bus))
	}
	if p.n%len(w.sessions) != i {
		return nil
	}
	// The round trip rotates over the sessions. The pipeline's copy of
	// the trace is dropped first, so the unpacked copy reuses its memory
	// and the oracle does not raise the peak RSS the pass reports.
	want := traceHash(pb.Trace, pb.TraceKinds)
	pb.Trace, pb.TraceKinds = nil, nil
	runtime.GC()
	return checkRoundTrip(name, packed, want)
}

// paperReport renders Table 1 and, per session, Figure 5 (miss rates)
// and Figure 6 (Teff, with the energy model's memory saving).
func paperReport(studies []sessionStudy) string {
	var b strings.Builder
	t := report.New("Table 1: session data", "session", "events", "RAM refs (M)", "flash refs (M)", "elapsed", "avg mem cyc")
	for _, s := range studies {
		t.Addf("%s\t%d\t%s\t%s\t%s\t%.2f", s.name, s.log.Len(),
			report.Millions(s.bus.RAMRefs), report.Millions(s.bus.FlashRefs),
			sim.FormatElapsed(float64(s.log.ElapsedTicks())/sim.TicksPerSecond), s.bus.AvgMemCycles())
	}
	b.WriteString(t.String())
	em := energy.Default()
	for _, s := range studies {
		rs := append([]cache.Result(nil), s.results...)
		sort.SliceStable(rs, func(i, j int) bool {
			a, c := rs[i].Config, rs[j].Config
			if a.LineBytes != c.LineBytes {
				return a.LineBytes < c.LineBytes
			}
			if a.Ways != c.Ways {
				return a.Ways < c.Ways
			}
			return a.SizeBytes < c.SizeBytes
		})
		noCache := cache.NoCacheTeff(s.bus.RAMRefs, s.bus.FlashRefs)
		f5 := report.New("Figure 5: miss rates, "+s.name, "config", "miss rate", "misses", "accesses")
		f6 := report.New("Figure 6: Teff, "+s.name, "config", "Teff", "Teff exact", "vs no cache", "mem energy saved")
		for _, r := range rs {
			f5.Addf("%s\t%s\t%d\t%d", r.Config, report.Pct(r.MissRate()), r.Misses, r.Accesses)
			f6.Addf("%s\t%.3f\t%.3f\t-%.0f%%\t%s", r.Config, r.TeffPaper(), r.TeffExact(),
				(1-r.TeffPaper()/noCache)*100, report.Pct(em.MemorySaving(r)))
		}
		b.WriteString(f5.String())
		b.WriteString(f6.String())
	}
	return b.String()
}

// --- design-sweep -------------------------------------------------------

// family is one sweep of the design space over the session-4 trace.
type family struct {
	layer string // span name: the layer metrics it feeds
	label string
	cfgs  []cache.Config
	hs    []cache.Hierarchy
	units int
}

// designSweep explores the cache design space over one session-4
// trace, collected and packed during set-up: every pass stream-decodes
// the packed trace once per family.
type designSweep struct {
	trace  []uint32
	kinds  []uint8
	packed []byte
	bus    bus.Stats
	init   *hotsync.State
	fams   []family
}

func paperGrid(pol cache.Policy, wp cache.WritePolicy) []cache.Config {
	cfgs := cache.PaperSweep()
	for i := range cfgs {
		cfgs[i].Policy = pol
		cfgs[i].Write = wp
	}
	return cfgs
}

// hierarchyGrid is the repository's BenchmarkHierarchySweep grid: two L1
// geometries, each with eight L2 candidates.
func hierarchyGrid(content cache.ContentPolicy) []cache.Hierarchy {
	var hs []cache.Hierarchy
	for _, l1 := range []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1, Policy: cache.LRU},
		{SizeBytes: 4 << 10, LineBytes: 16, Ways: 2, Policy: cache.LRU},
	} {
		for _, kb := range []int{16, 32, 64, 128} {
			for _, ways := range []int{2, 8} {
				l2 := cache.Config{SizeBytes: kb << 10, LineBytes: 32, Ways: ways, Policy: cache.LRU}
				hs = append(hs, cache.Hierarchy{Levels: []cache.Config{l1, l2}, Content: content})
			}
		}
	}
	return hs
}

func prepareDesign(ctx context.Context, seed int64) (runner, error) {
	var s4 user.Session
	for _, s := range seeded(sim.PaperSessions(), seed) {
		if s.Name == "session4" {
			s4 = s
		}
	}
	col, err := sim.Collect(ctx, s4)
	if err != nil {
		return nil, fmt.Errorf("collect %s: %w", s4.Name, err)
	}
	col.Release()
	opts := sim.DefaultReplayOptions()
	opts.CollectKinds = true
	pb, err := sim.Replay(ctx, col.Initial, col.Log, opts)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", s4.Name, err)
	}
	pb.Release()
	packed, err := dtrace.PackTrace(pb.Trace, pb.TraceKinds)
	if err != nil {
		return nil, err
	}
	w := &designSweep{trace: pb.Trace, kinds: pb.TraceKinds, packed: packed, bus: pb.Stats.Bus, init: col.Initial}
	w.fams = []family{
		{layer: "sweep.fifo_wb", label: "FIFO write-back", cfgs: paperGrid(cache.FIFO, cache.WriteBack)},
		{layer: "sweep.plru", label: "PLRU", cfgs: paperGrid(cache.PLRU, cache.WriteIgnore)},
		{layer: "sweep.opt", label: "OPT", cfgs: paperGrid(cache.OPT, cache.WriteIgnore)},
		{layer: "sweep.hier", label: "L1+L2 non-inclusive", hs: hierarchyGrid(cache.NonInclusive)},
		{layer: "sweep.hier", label: "L1+L2 inclusive", hs: hierarchyGrid(cache.Inclusive)},
	}
	for i := range w.fams {
		f := &w.fams[i]
		var plan sweep.PlanInfo
		if f.hs != nil {
			plan, err = sweep.PlanHierarchies(sweep.Options{}, f.hs)
		} else {
			plan, err = sweep.Plan(sweep.Options{}, f.cfgs)
		}
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", f.label, err)
		}
		f.units = plan.Units
	}
	return w, nil
}

func (w *designSweep) run(p *pass) error {
	ctx := p.ctx
	refs := float64(len(w.trace))
	var flat [][]cache.Result
	var hier [][]cache.HierarchyResult
	units := map[string]float64{}
	for fi, f := range w.fams {
		var res []cache.Result
		var hres []cache.HierarchyResult
		if err := p.layer(f.layer, func() error {
			src, err := p.open(w.packed)
			if err != nil {
				return err
			}
			if f.hs != nil {
				hres, err = sweep.RunHierarchies(ctx, f.hs, src, sweep.Options{})
			} else {
				res, err = sweep.Run(ctx, f.cfgs, src, sweep.Options{})
			}
			return err
		}); err != nil {
			return fmt.Errorf("sweep %s: %w", f.label, err)
		}
		p.count("refs", refs)
		p.count(f.layer+".refcfgs", refs*float64(len(f.cfgs)+len(f.hs)))
		units[f.layer] += float64(f.units)
		if err := p.check(func() error { return w.checkFamily(p, fi, f, res, hres) }); err != nil {
			return err
		}
		if f.hs != nil {
			hier = append(hier, hres)
		} else {
			flat = append(flat, res)
		}
	}
	for k, v := range units {
		p.counts[k+".units"] = v
	}
	var text string
	if err := p.layer("report", func() error {
		text = designReport(flat, hier)
		return nil
	}); err != nil {
		return err
	}
	return p.check(func() error {
		p.hashBytes([]byte(text))
		return nil
	})
}

func (w *designSweep) checkFamily(p *pass, fi int, f family, res []cache.Result, hres []cache.HierarchyResult) error {
	refs := uint64(len(w.trace))
	if f.hs != nil {
		if err := checkHierResults(f.label, f.hs, hres, refs); err != nil {
			return err
		}
		if err := checkHierSample(p.ctx, f.label, hres[sampleIndex(p.n, fi, len(hres))], w.trace, w.kinds); err != nil {
			return err
		}
		p.hashValue(hres)
		return nil
	}
	if err := checkResults(f.label, f.cfgs, res, refs); err != nil {
		return err
	}
	if p.n == 0 && fi == 0 {
		// Once per run: the packed set-up trace round-trips, and its
		// RAM/flash split matches the replay's bus.
		if err := checkRoundTrip("session4", w.packed, traceHash(w.trace, w.kinds)); err != nil {
			return err
		}
		prefix, err := replayPrefix(w.init)
		if err != nil {
			return fmt.Errorf("prefix oracle: %w", err)
		}
		if err := checkSplit("session4", res[0], w.bus, prefix); err != nil {
			return err
		}
		p.info = append(p.info, teffInfo("session4", w.bus))
	}
	if err := checkSample(f.label, res[sampleIndex(p.n, fi, len(res))], w.trace, w.kinds); err != nil {
		return err
	}
	if fi == 0 {
		// The set-up trace is part of every pass's digest.
		p.hashU32(w.trace)
		p.hashBytes(w.kinds)
		p.hashBytes(w.packed)
	}
	p.hashValue(res)
	return nil
}

// designReport renders the policy grids with write traffic and energy,
// and the hierarchy grids with the hierarchy energy model.
func designReport(flat [][]cache.Result, hier [][]cache.HierarchyResult) string {
	var b strings.Builder
	em := energy.Default()
	t := report.New("Policy sweep over session4", "config", "miss rate", "Teff write-aware", "write traffic (B)", "mem energy saved")
	for _, rs := range flat {
		for _, r := range rs {
			t.Addf("%s\t%s\t%.3f\t%d\t%s", r.Config, report.Pct(r.MissRate()), r.TeffWriteAware(),
				r.WriteTrafficBytes(), report.Pct(em.MemorySaving(r)))
		}
	}
	b.WriteString(t.String())
	h := report.New("Hierarchy sweep over session4", "hierarchy", "global miss rate", "Teff exact", "back-invalidations", "mem energy saved")
	for _, rs := range hier {
		for _, r := range rs {
			h.Addf("%s\t%s\t%.3f\t%d\t%s", r.Hierarchy, report.Pct(r.MissRate()), r.TeffExact(),
				r.BackInvalidations, report.Pct(em.HierarchyMemorySaving(r)))
		}
	}
	b.WriteString(h.String())
	return b.String()
}

// --- replay-validate ----------------------------------------------------

// replayValidate is the paper's §3 validation without a trace: each
// Table 1 session from a fresh device, then the three §3.2 workloads
// chained state to state, each collected, replayed with the hacks in
// and correlated log to log and state to state.
type replayValidate struct {
	sessions []user.Session
	chain    []user.Session
	refReps  []*exp.ValidationResult // the reference pass's correlations
}

func prepareValidate(ctx context.Context, seed int64) (runner, error) {
	return &replayValidate{
		sessions: seeded(sim.PaperSessions(), seed),
		chain:    seeded(exp.ValidationWorkloads(), seed),
	}, nil
}

func (w *replayValidate) run(p *pass) error {
	var prior *sim.State
	all := append(append([]user.Session(nil), w.sessions...), w.chain...)
	for i, s := range all {
		if i <= len(w.sessions) {
			prior = nil // each Table 1 session and the chain's head boot fresh
		}
		var col *sim.Collection
		if err := p.layer("sim.collect", func() (err error) {
			col, err = sim.CollectFrom(p.ctx, prior, s)
			if err == nil {
				col.Release()
			}
			return err
		}); err != nil {
			return fmt.Errorf("collect %s: %w", s.Name, err)
		}
		var pb *sim.Playback
		if err := p.layer("sim.replay", func() (err error) {
			pb, err = sim.Replay(p.ctx, col.Initial, col.Log, sim.ReplayOptions{Profiling: true, WithHacks: true})
			if err == nil {
				pb.Release()
			}
			return err
		}); err != nil {
			return fmt.Errorf("replay %s: %w", s.Name, err)
		}
		rep := &exp.ValidationResult{Session: s}
		if err := p.layer("validate.correlate", func() error {
			rep.Log = validate.CorrelateLogs(col.Log, pb.Log)
			rep.State = validate.CorrelateStates(col.Final, pb.Final)
			return nil
		}); err != nil {
			return err
		}
		prior = col.Final
		if p.n == 0 {
			w.refReps = append(w.refReps, rep)
		}

		p.count("refs", float64(pb.Stats.Bus.TotalRefs()))
		p.count("sim.collect.events", float64(col.Log.Len()))
		p.count("sim.replay.instr", float64(pb.Stats.Machine.Instructions))
		p.count("sim.replay.refs", float64(pb.Stats.Bus.TotalRefs()))
		if err := p.check(func() error {
			if !rep.Log.OK() {
				return fmt.Errorf("%s: §3.3 log correlation failed: %v %v", s.Name, rep.Log, rep.Log.Problems)
			}
			if !rep.State.OK() {
				return fmt.Errorf("%s: §3.4 state correlation failed: %v %v", s.Name, rep.State, rep.State.UnexpectedDiffs())
			}
			p.hashValue(rep.Log)
			p.hashValue(rep.State)
			p.hashValue(pb.Stats.Bus)
			if p.n == 0 {
				p.info = append(p.info, teffInfo(s.Name, pb.Stats.Bus))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// finalCheck holds the reference pass's correlations to what the
// repository's own validation functions report for the same sessions.
func (w *replayValidate) finalCheck(ctx context.Context) error {
	reps := w.refReps
	var want []*exp.ValidationResult
	for _, s := range w.sessions {
		r, err := exp.ValidateSession(ctx, s)
		if err != nil {
			return err
		}
		want = append(want, r)
	}
	chain, err := exp.ValidateChain(ctx, w.chain)
	if err != nil {
		return err
	}
	want = append(want, chain...)
	if len(reps) != len(want) {
		return fmt.Errorf("reference pass correlated %d sessions, exp reports %d", len(reps), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].Log, reps[i].Log) || !reflect.DeepEqual(want[i].State, reps[i].State) {
			return fmt.Errorf("%s: benchmark correlation %v / %v, exp reports %v / %v",
				want[i].Session.Name, reps[i].Log, reps[i].State, want[i].Log, want[i].State)
		}
	}
	return nil
}
