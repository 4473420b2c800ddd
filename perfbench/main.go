// Command perfbench is palmsim's end-to-end benchmark. It runs one seeded
// workload through the public layer entry points — sim.Collect,
// sim.Replay, dtrace.PackTrace, exp.OpenTraceSource, sweep.Run and
// sweep.RunHierarchies, validate.Correlate*, report and energy — checks
// every pass's outputs against in-run oracles, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	perfbench --workload paper-pipeline --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 alternates untraced and traced passes and reports per-layer
// metrics from spans recorded around each layer call, which it also
// writes to .bench_build/spans/. RATIONALE.md explains the workloads and
// which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

// minPasses is the fewest timed passes per mode, so a median exists
// even when one pass outlasts --seconds.
const minPasses = 3

// wallLimit stops the timed loop early so a run always ends well within
// the 180 s a run may take.
const wallLimit = 120 * time.Second

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "paper-pipeline, design-sweep or replay-validate")
	seed := flag.Int64("seed", 0, "input seed; 0 keeps the sessions' fixed seeds")
	seconds := flag.Float64("seconds", 10, "seconds of timed passes to measure")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags: workload %q trace %d seconds %g\n", *name, *trace, *seconds)
		return 2
	}
	started := time.Now()
	ctx := context.Background()

	var r runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r = nil // so the collection below frees the previous set-up's inputs
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = w.prepare(ctx, *seed); err == nil && w.warm {
			p := newPass(ctx, -1, nil)
			p.skip = true
			err = r.run(p)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", w.name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The reference pass is untimed: it runs the once-per-run checks and
	// fixes the digest every timed pass must reproduce.
	correct := true
	runtime.GC()
	ref := newPass(ctx, 0, nil)
	if err := r.run(ref); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s reference pass: %v\n", w.name, err)
		correct = false
	}
	ref.finish()
	digest := ref.sum()

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	mem := startMemSampler()
	defer mem.close()
	var untraced, traced, peaks []float64
	var layerRows []map[string]float64
	attempted, failed := 0, 0
	var measured time.Duration
	for n := 1; ; n++ {
		traceThis := tr != nil && n%2 == 0
		ptr := (*tracer)(nil)
		if traceThis {
			ptr = tr
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		if traceThis {
			runtime.ReadMemStats(&ms0)
		}
		mem.reset()
		p := newPass(ctx, n, ptr)
		err := r.run(p)
		d := p.finish()
		peak := float64(mem.max()) / (1 << 20)
		if traceThis {
			runtime.ReadMemStats(&ms1)
		}
		attempted++
		if err == nil {
			err = sameDigest(p.sum(), digest)
		}
		if err != nil {
			failed++
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %v\n", w.name, n, err)
		}
		measured += d
		if traceThis {
			traced = append(traced, d.Seconds())
			layerRows = append(layerRows, layerMetrics(tr.passSpans(n), p.counts, &ms0, &ms1))
		} else {
			untraced = append(untraced, d.Seconds())
			peaks = append(peaks, peak)
		}
		enough := measured.Seconds() >= *seconds && len(untraced) >= minPasses && (tr == nil || len(traced) >= minPasses)
		if enough || (time.Since(started) > wallLimit && (tr == nil || len(traced) > 0)) {
			break
		}
	}

	if fc, ok := r.(finalChecker); ok {
		if err := fc.finalCheck(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			correct = false
		}
	}

	refs := ref.counts["refs"]
	passS := median(untraced)
	metrics := map[string]metric{}
	if tr == nil {
		metrics["pass_s"] = metric{passS, "s"}
		metrics["refs_per_s"] = metric{refs / passS, "1/s"}
		metrics["peak_rss_mb"] = metric{quantile(peaks, 0.9), "MB"}
		metrics["setup_s"] = metric{median(setups), "s"}
	} else {
		for k := range layerRows[0] {
			var vs []float64
			for _, row := range layerRows {
				vs = append(vs, row[k])
			}
			metrics[k] = metric{median(vs), layerUnit(k)}
		}
		metrics["trace.overhead_s"] = metric{median(traced) - passS, "s"}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}

	for _, line := range ref.info {
		fmt.Println("info:", line)
	}
	fmt.Printf("sim_digest %s seed %d: %x\n", w.name, *seed, digest)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes (%d untraced, %d traced), median %.4f s, %.0f refs per pass\n",
		w.name, *seed, attempted, len(untraced), len(traced), passS, refs)
	out, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile interpolates linearly between the order statistics around
// rank q·(n-1).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }
