package main

import (
	"runtime"
	"strings"
)

// sweepLayers are the sweep families, one span name each.
var sweepLayers = []string{"sweep.lru", "sweep.fifo_wb", "sweep.plru", "sweep.opt", "sweep.hier"}

// layerMetrics derives one traced pass's per-layer metrics from its spans
// and counters. Every metric is present on every workload; a layer the
// workload does not run reads 0. Times are self times: a span's duration
// less its children's, so a sweep's time excludes the decoding it waits
// for. ms0 and ms1 bracket the pass.
func layerMetrics(spans []span, c map[string]float64, ms0, ms1 *runtime.MemStats) map[string]float64 {
	self := selfTimes(spans)
	alloc := allocByLayer(spans)
	s := func(layer string) float64 { return self[layer].Seconds() }
	a := func(layer string) float64 { return float64(alloc[layer]) }
	m := map[string]float64{}

	m["sim.collect.s"] = s("sim.collect")
	m["sim.collect.events"] = c["sim.collect.events"]
	m["sim.collect.alloc_b"] = a("sim.collect")

	rs, refs := s("sim.replay"), c["sim.replay.refs"]
	m["sim.replay.s"] = rs
	m["sim.replay.instr"] = c["sim.replay.instr"]
	m["sim.replay.refs"] = refs
	m["sim.replay.mips"] = div(c["sim.replay.instr"], rs*1e6)
	m["sim.replay.ns_per_ref"] = div(rs*1e9, refs)
	m["sim.replay.alloc_b_per_ref"] = div(a("sim.replay"), refs)

	ps, prefs := s("dtrace.pack"), c["dtrace.pack.refs"]
	m["dtrace.pack.s"] = ps
	m["dtrace.pack.ns_per_ref"] = div(ps*1e9, prefs)
	m["dtrace.pack.b_per_ref"] = div(c["dtrace.pack.bytes"], prefs)

	ds := s("dtrace.decode")
	m["dtrace.decode.s"] = ds
	m["dtrace.decode.ns_per_ref"] = div(ds*1e9, c["dtrace.decode.refs"])

	for _, l := range sweepLayers {
		m[l+".s"] = s(l)
		m[l+".ns_per_ref_cfg"] = div(s(l)*1e9, c[l+".refcfgs"])
		m[l+".units"] = c[l+".units"]
		m[l+".alloc_b"] = a(l)
	}

	m["validate.correlate.s"] = s("validate.correlate")
	m["report.s"] = s("report")

	// The runtime's figures cover the whole pass; only the allocation
	// count can leave out the untimed checks.
	m["go.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["go.alloc_b"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) - a(checkSpan)

	m["trace.coverage"] = coverage(spans)
	return m
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s") || strings.HasSuffix(name, ".s"):
		return "s"
	case strings.HasSuffix(name, "ns_per_ref") || strings.HasSuffix(name, "ns_per_ref_cfg"):
		return "ns"
	case strings.HasSuffix(name, "b_per_ref") || strings.HasSuffix(name, "alloc_b"):
		return "B"
	case strings.HasSuffix(name, ".mips"):
		return "MIPS"
	case strings.HasSuffix(name, ".coverage"):
		return "ratio"
	}
	return "count"
}
