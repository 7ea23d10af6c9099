package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"automatazoo/internal/automata"
	"automatazoo/internal/dfa"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// The scan paths, each the library calls behind one azoo run mode.
var pathNames = []string{"nfa", "dfa", "prefilter", "seg_nfa", "seg_prefilter", "par_nfa"}

// layerOf names the engine package behind each sequential path.
var layerOf = map[string]string{"nfa": "sim", "dfa": "dfa", "prefilter": "prefilter"}

// ctor constructs a scan engine, as segment.Options.NewEngine and
// partition.RunOptions.NewEngine accept.
type ctor = func(*automata.Automaton) (segment.Engine, error)

// engines are the NFA and prefilter constructors the paths scan with.
// Tests substitute faulty ones to show the oracle catches them.
type engines struct {
	sim, prefilter ctor
}

var defaultEngines = engines{
	sim:       func(a *automata.Automaton) (segment.Engine, error) { return sim.New(a), nil },
	prefilter: func(a *automata.Automaton) (segment.Engine, error) { return prefilter.New(a) },
}

// passCounts are the exact work counters of one pass, kept per
// (kernel, path) from the traced passes.
type passCounts struct {
	dfa        dfa.Stats
	anchored   int64
	unanchored int64
	anchorHits int64
	stitch     segment.Stitch
	alloc      uint64 // bytes allocated during the pass
	extract    int64  // nanoseconds Plan.Run spent extracting slices
}

// scanner runs passes of the scan paths over kernels and checks every
// scan call against the kernel's reference.
type scanner struct {
	nproc int
	eng   engines
	tr    *tracer // nil: untraced

	attempted, failed int64
	mismatches        []string // the first few failures, for stderr
	outs              []outcome
}

// pass scans every stream of kernel ki once through path and returns the
// wall time of the scan calls. The sequential paths scan on e, which the
// caller constructed; construction inside segment.Run and Plan.Run counts
// as scan time, because the caller waits for it there.
func (s *scanner) pass(k *kernel, ki int, path string, e any) (time.Duration, passCounts) {
	if cap(s.outs) < len(k.streams) {
		s.outs = make([]outcome, len(k.streams))
	}
	outs := s.outs[:len(k.streams)]
	var pc passCounts
	var ms runtime.MemStats
	if s.tr != nil {
		runtime.ReadMemStats(&ms)
		pc.alloc = ms.TotalAlloc
	}
	var dur time.Duration
	switch path {
	case "nfa", "prefilter":
		dur, pc.anchorHits = s.seqPass(k, ki, path, e.(segment.Engine), outs)
		if p, ok := e.(*prefilter.Engine); ok {
			pc.anchored, pc.unanchored = int64(p.Anchored()), int64(p.Unanchored())
		}
	case "dfa":
		dur, pc.dfa = s.dfaPass(k, ki, e.(*dfa.Engine), outs)
	case "seg_nfa", "seg_prefilter":
		dur, pc.stitch = s.segPass(k, ki, path, outs)
	case "par_nfa":
		dur, pc.extract = s.parPass(k, ki, outs)
	default:
		panic("unknown path " + path)
	}
	if s.tr != nil {
		runtime.ReadMemStats(&ms)
		pc.alloc = ms.TotalAlloc - pc.alloc
	}
	for i := range outs {
		s.attempted++
		// Every path but dfa runs sim's semantics and must also reproduce
		// its work counters.
		if !agrees(outs[i], k.ref[i], path != "dfa") {
			s.fail(fmt.Sprintf("%s %s stream %d: got %d reports digest %016x stats %+v err %v, want %d reports digest %016x stats %+v",
				path, k.spec.slug, i, outs[i].reports, outs[i].digest, outs[i].stats, outs[i].err,
				k.ref[i].reports, k.ref[i].digest, k.ref[i].stats))
		}
	}
	return dur, pc
}

func (s *scanner) fail(msg string) {
	s.failed++
	if len(s.mismatches) < 8 {
		s.mismatches = append(s.mismatches, msg)
	}
}

// construct builds the engine of a sequential path: nfa and prefilter
// reuse theirs for a round, dfa builds a fresh one for every pass so each
// pass starts with the cold transition cache a new process has.
func (s *scanner) construct(k *kernel, ki int, path string) (any, error) {
	var (
		e   any
		err error
	)
	id := s.tr.start(layerOf[path]+".new", -1, ki)
	switch path {
	case "nfa":
		e, err = s.eng.sim(k.a)
	case "prefilter":
		e, err = s.eng.prefilter(k.a)
	case "dfa":
		e, err = dfa.New(k.a)
	}
	s.tr.end(id)
	return e, err
}

// factory wraps c so the traced run counts and times every engine the
// parallel drivers build, under the scan call that built it.
func (s *scanner) factory(name string, c ctor) ctor {
	t := s.tr
	if t == nil {
		return c
	}
	return func(a *automata.Automaton) (segment.Engine, error) {
		id := t.start(name, t.openCall(), -1)
		e, err := c(a)
		t.end(id)
		return e, err
	}
}

// seqPass resets and runs e on each stream in turn. It also returns the
// prefilter's anchor hits over the pass (0 for other engines).
func (s *scanner) seqPass(k *kernel, ki int, path string, e segment.Engine, outs []outcome) (time.Duration, int64) {
	var f fold
	e.SetOnReport(f.sim)
	run := "sim.run"
	if path == "prefilter" {
		run = "prefilter.run"
	}
	p, _ := e.(*prefilter.Engine)
	var hits int64
	unit := s.tr.start(path, -1, ki)
	t0 := time.Now()
	for i, in := range k.streams {
		f = fold{}
		id := s.tr.start(run, unit, ki)
		e.Reset()
		st := e.Run(in)
		s.tr.end(id)
		outs[i] = outcome{reports: f.n, digest: f.sum, stats: st}
		if p != nil {
			hits += p.AnchorHits()
		}
	}
	dur := time.Since(t0)
	s.tr.end(unit)
	e.SetOnReport(nil)
	return dur, hits
}

func (s *scanner) dfaPass(k *kernel, ki int, e *dfa.Engine, outs []outcome) (time.Duration, dfa.Stats) {
	var f fold
	e.OnReport = f.dfa
	unit := s.tr.start("dfa", -1, ki)
	t0 := time.Now()
	for i, in := range k.streams {
		f = fold{}
		id := s.tr.start("dfa.run", unit, ki)
		e.Reset()
		e.Run(in)
		s.tr.end(id)
		outs[i] = outcome{reports: f.n, digest: f.sum}
	}
	dur := time.Since(t0)
	s.tr.end(unit)
	return dur, e.Stats()
}

func (s *scanner) segPass(k *kernel, ki int, path string, outs []outcome) (time.Duration, segment.Stitch) {
	var f fold
	opts := segment.Options{Segments: s.nproc, Workers: s.nproc, OnReport: f.sim, NewEngine: s.factory("sim.new", s.eng.sim)}
	if path == "seg_prefilter" {
		opts.NewEngine = s.factory("prefilter.new", s.eng.prefilter)
	}
	var stitch segment.Stitch
	ctx := context.Background()
	unit := s.tr.start(path, -1, ki)
	t0 := time.Now()
	for i, in := range k.streams {
		f = fold{}
		id := s.tr.startCall("segment.run", unit, ki)
		res, err := segment.Run(ctx, k.a, in, opts)
		s.tr.endCall(id)
		outs[i] = outcome{reports: f.n, digest: f.sum, stats: res.Stats, err: err}
		stitch.Add(res.Stitch)
	}
	dur := time.Since(t0)
	s.tr.end(unit)
	return dur, stitch
}

// parPass also returns the nanoseconds spent extracting slices, summed
// over workers, which the traced run reads from the partition layer's own
// phase spans: extraction happens inside Plan.Run, out of the benchmark's
// reach.
func (s *scanner) parPass(k *kernel, ki int, outs []outcome) (time.Duration, int64) {
	var f fold
	opts := partition.RunOptions{Workers: s.nproc, OnReport: f.sim, NewEngine: s.factory("sim.new", s.eng.sim)}
	if s.tr != nil {
		opts.Spans = telemetry.NewSpans()
	}
	ctx := context.Background()
	unit := s.tr.start("par_nfa", -1, ki)
	t0 := time.Now()
	for i, in := range k.streams {
		f = fold{}
		id := s.tr.startCall("partition.run", unit, ki)
		res, err := k.plan.Run(ctx, in, opts)
		s.tr.endCall(id)
		outs[i] = outcome{reports: f.n, digest: f.sum, err: err,
			stats: sim.Stats{Enabled: res.Enabled, Active: res.Active, CounterPulses: res.CounterPulses, Reports: res.Reports}}
	}
	dur := time.Since(t0)
	s.tr.end(unit)
	var extract int64
	for _, sp := range telemetry.FlattenSpans(opts.Spans.Snapshot()) {
		if sp.Path == "partition.run/extract" {
			extract += sp.Nanos
		}
	}
	return dur, extract
}

// reference scans every stream of k on a fresh sequential NFA engine, the
// oracle all paths are checked against. It uses sim.New directly so a
// faulty engine constructor cannot also corrupt the reference.
func reference(k *kernel) []outcome {
	e := sim.New(k.a)
	var f fold
	e.OnReport = f.sim
	ref := make([]outcome, len(k.streams))
	for i, in := range k.streams {
		f = fold{}
		e.Reset()
		st := e.Run(in)
		ref[i] = outcome{reports: f.n, digest: f.sum, stats: st}
	}
	return ref
}
