package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"time"

	"palmsim/internal/exp"
	"palmsim/internal/sweep"
)

// checkSpan names the spans that wrap untimed oracle work inside a pass.
const checkSpan = "check"

// pass carries one run of a workload's pipeline: its span parent, the
// untimed share spent in checks, the layer counters and the digest of
// every simulated statistic it produced.
type pass struct {
	ctx   context.Context
	n     int     // pass number; 0 is the untimed reference pass
	skip  bool    // set-up warm-up: checks off
	tr    *tracer // nil when tracing is off
	root  int
	cur   int // span of the layer call in progress
	start time.Time

	untimed time.Duration
	counts  map[string]float64
	digest  hash.Hash
	info    []string
	buf     []byte
}

func newPass(ctx context.Context, n int, tr *tracer) *pass {
	p := &pass{ctx: ctx, n: n, tr: tr, counts: map[string]float64{}, digest: sha256.New()}
	if tr != nil {
		tr.pass = n
	}
	p.start = time.Now()
	p.root = tr.begin("pass", -1)
	return p
}

// finish closes the pass and returns its timed duration: wall time less
// the time spent in checks.
func (p *pass) finish() time.Duration {
	wall := time.Since(p.start)
	p.tr.end(p.root)
	return wall - p.untimed
}

// layer runs one call into a layer of the program under a span.
func (p *pass) layer(name string, f func() error) error {
	id := p.tr.begin(name, p.root)
	p.cur = id
	err := f()
	p.tr.end(id)
	p.cur = p.root
	return err
}

// check runs oracle work outside the timed region.
func (p *pass) check(f func() error) error {
	if p.skip {
		return nil
	}
	t0 := time.Now()
	err := p.tr.call(checkSpan, p.root, f)
	p.untimed += time.Since(t0)
	return err
}

func (p *pass) count(name string, v float64) { p.counts[name] += v }

// open starts a streaming decode of a packed trace through
// exp.OpenTraceSource, from inside a layer call. Traced, the source is
// wrapped so the time spent inside NextChunk is recorded as
// dtrace.decode spans under that layer's span.
func (p *pass) open(packed []byte) (sweep.Source, error) {
	var src sweep.Source
	var format string
	err := p.tr.call("dtrace.decode", p.cur, func() (err error) {
		src, format, err = exp.OpenTraceSource(bytes.NewReader(packed))
		return err
	})
	if err != nil {
		return nil, err
	}
	if format != "packed" {
		return nil, fmt.Errorf("opened a %s trace from PALMPKD1 bytes", format)
	}
	ks, ok := src.(sweep.KindedSource)
	if !ok {
		return nil, fmt.Errorf("packed source %T carries no access kinds", src)
	}
	if p.tr == nil {
		return ks, nil
	}
	return &timedSource{src: ks, p: p, parent: p.cur}, nil
}

// timedSource measures the decoder from outside: the time spent inside
// each NextChunk call and the references it produced.
type timedSource struct {
	src    sweep.KindedSource
	p      *pass
	parent int
}

func (s *timedSource) NextChunk(buf []uint32) (int, error) {
	t0 := time.Now()
	n, err := s.src.NextChunk(buf)
	s.done(t0, n)
	return n, err
}

func (s *timedSource) NextChunkKinded(refs []uint32, kinds []uint8) (int, error) {
	t0 := time.Now()
	n, err := s.src.NextChunkKinded(refs, kinds)
	s.done(t0, n)
	return n, err
}

func (s *timedSource) done(t0 time.Time, n int) {
	s.p.tr.record("dtrace.decode", s.parent, t0, time.Now(), func() {
		s.p.counts["dtrace.decode.refs"] += float64(n)
	})
}

// Digest helpers: every simulated statistic a pass produces is fed to
// the pass digest in a fixed order, so passes of one seed must agree.

func (p *pass) hashU32(v []uint32) { p.buf = writeU32(p.digest, p.buf, v) }

func (p *pass) hashBytes(b []byte) { p.digest.Write(b) }

func (p *pass) hashValue(v any) { fmt.Fprintf(p.digest, "%+v\n", v) }

func (p *pass) sum() []byte { return p.digest.Sum(nil) }
