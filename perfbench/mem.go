package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// memSampler tracks the peak of the Go heap in use — live objects and
// dead ones not yet swept, the runtime's /memory/classes/heap/objects —
// by sampling it every millisecond. The process's peak RSS cannot serve:
// getrusage's cannot be reset after set-up, and the resident footprint
// moves with the background scavenger and with the emulator's sync.Pool
// of memory images, by one 20 MB image from one pass to the next. The
// heap peak still moves by that image in rare passes, which is why the
// run reports the 90th percentile of its passes' peaks, not the maximum.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func footprint(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func footprintSamples() []metrics.Sample {
	return []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
}

// startMemSampler starts the sampling goroutine; close stops it and
// waits for it to exit.
func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := footprintSamples()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.observe(footprint(s))
			}
		}
	}()
	return m
}

func (m *memSampler) observe(v uint64) {
	for {
		old := m.peak.Load()
		if v <= old || m.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak at the current footprint.
func (m *memSampler) reset() { m.peak.Store(footprint(footprintSamples())) }

// max returns the peak since reset, including the current footprint.
func (m *memSampler) max() uint64 {
	m.observe(footprint(footprintSamples()))
	return m.peak.Load()
}

func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}
