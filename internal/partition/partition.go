// Package partition splits a benchmark automaton across multiple passes of
// a capacity-limited spatial device. AutomataZoo deliberately ships
// benchmarks larger than any one chip ("If benchmarks are too large to fit
// into the resources of a target spatial architecture, researchers must
// develop ways to evaluate sequential runs of the partitioned benchmark" —
// Section III); this package is that mechanism: bin-pack the automaton's
// connected components into device-sized slices, extract each slice as a
// standalone automaton, and run the input once per slice, merging reports.
//
// Partitioning at component granularity is exact: components share no
// edges, so running them separately cannot change any report.
//
// The same independence makes slices the unit of CPU parallelism:
// Plan.RunParallel fans the slices of a Plan out across a worker pool
// (internal/parallel) with one NFA engine per slice and merges the report
// streams deterministically, and ForWorkers builds a plan sized for a
// worker count rather than a device capacity. RunSequential remains the
// single-threaded multi-pass reference that RunParallel is tested against.
package partition

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/guard"
	"automatazoo/internal/parallel"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// Slice is one device-load: a set of component indices and its state cost.
type Slice struct {
	Components []int32
	States     int
}

// Plan is a partition of an automaton into capacity-bounded slices.
type Plan struct {
	Capacity int
	Slices   []Slice

	a         *automata.Automaton
	compIdx   []int32 // per-state component
	sizes     []int
	extracted []extracted // per slice, filled on first Extract
}

// extracted is one slice's standalone automaton, built exactly once.
type extracted struct {
	once sync.Once
	a    *automata.Automaton
	err  error
}

// Partition bin-packs the automaton's components into slices of at most
// capacity states using first-fit decreasing. It fails if any single
// component exceeds the capacity (such a component would need
// intra-component cutting, which changes semantics).
func Partition(a *automata.Automaton, capacity int) (*Plan, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("partition: capacity must be positive")
	}
	sizes, compIdx := a.Components()
	order := make([]int32, len(sizes))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(x, y int) bool {
		if sizes[order[x]] != sizes[order[y]] {
			return sizes[order[x]] > sizes[order[y]]
		}
		return order[x] < order[y]
	})
	p := &Plan{Capacity: capacity, a: a, compIdx: compIdx, sizes: sizes}
	for _, c := range order {
		sz := sizes[c]
		if sz > capacity {
			return nil, fmt.Errorf("partition: component %d has %d states, exceeding capacity %d", c, sz, capacity)
		}
		placed := false
		for i := range p.Slices {
			if p.Slices[i].States+sz <= capacity {
				p.Slices[i].Components = append(p.Slices[i].Components, c)
				p.Slices[i].States += sz
				placed = true
				break
			}
		}
		if !placed {
			p.Slices = append(p.Slices, Slice{Components: []int32{c}, States: sz})
		}
	}
	p.extracted = make([]extracted, len(p.Slices))
	return p, nil
}

// Passes returns the number of sequential device loads.
func (p *Plan) Passes() int { return len(p.Slices) }

// Utilization returns the mean fraction of capacity used per slice.
func (p *Plan) Utilization() float64 {
	if len(p.Slices) == 0 {
		return 0
	}
	var total float64
	for _, s := range p.Slices {
		total += float64(s.States) / float64(p.Capacity)
	}
	return total / float64(len(p.Slices))
}

// Extract returns slice i as a standalone automaton. Report codes and all
// element properties are preserved; state IDs are renumbered. The slice
// is extracted on the first call (safe from concurrent callers) and the
// same automaton is returned by every later call, so runs of the plan
// share it — and with it the engine tables compiled on it. The plan's
// Slices must not be modified once Extract has been called.
func (p *Plan) Extract(i int) (*automata.Automaton, error) {
	if i < 0 || i >= len(p.Slices) {
		return nil, fmt.Errorf("partition: slice %d out of range", i)
	}
	x := &p.extracted[i]
	x.once.Do(func() { x.a, x.err = p.extract(i) })
	return x.a, x.err
}

// extract materializes slice i.
func (p *Plan) extract(i int) (*automata.Automaton, error) {
	want := map[int32]bool{}
	for _, c := range p.Slices[i].Components {
		want[c] = true
	}
	b := automata.NewBuilder()
	newID := make(map[automata.StateID]automata.StateID)
	n := p.a.NumStates()
	for s := 0; s < n; s++ {
		id := automata.StateID(s)
		if !want[p.compIdx[s]] {
			continue
		}
		var nid automata.StateID
		if p.a.Kind(id) == automata.KindCounter {
			cfg, _ := p.a.CounterConfig(id)
			nid = b.AddCounter(cfg.Target, cfg.Mode)
		} else {
			nid = b.AddSTE(p.a.Class(id), p.a.Start(id))
		}
		if p.a.IsReport(id) {
			b.SetReport(nid, p.a.ReportCode(id))
		}
		newID[id] = nid
	}
	for s := 0; s < n; s++ {
		id := automata.StateID(s)
		if !want[p.compIdx[s]] {
			continue
		}
		for _, t := range p.a.Succ(id) {
			b.AddEdge(newID[id], newID[t])
		}
	}
	return b.Build()
}

// SliceCompOf returns the per-state global component index of slice i's
// extracted automaton: Extract renumbers states in ascending global-ID
// order, so filtering the whole automaton's component map by the slice's
// component set reproduces the local numbering. The result is the compOf
// map an attribution ledger needs to charge slice-local engine events to
// global components (attr.Collector.Ledger).
func (p *Plan) SliceCompOf(i int) []int32 {
	want := map[int32]bool{}
	for _, c := range p.Slices[i].Components {
		want[c] = true
	}
	compOf := make([]int32, 0, p.Slices[i].States)
	for s := range p.compIdx {
		if want[p.compIdx[s]] {
			compOf = append(compOf, p.compIdx[s])
		}
	}
	return compOf
}

// Result aggregates a multi-pass run (sequential or parallel).
type Result struct {
	Passes  int
	Symbols int64 // total symbols across all passes
	Reports int64
	// Enabled and Active sum the engines' per-pass frontier and activation
	// counts (see sim.Stats). Components are independent, so these sums
	// equal a single whole-automaton run's counts, which is how the stats
	// package derives Table-I dynamic columns from a partitioned run.
	Enabled       int64
	Active        int64
	CounterPulses int64
	// Stitch aggregates the segment-parallel scanner's accounting across
	// slices (internal/segment); zero when the run was unsegmented
	// (RunOptions.Segments <= 1).
	Stitch segment.Stitch
}

func (r *Result) add(st sim.Stats) {
	r.Symbols += st.Symbols
	r.Reports += st.Reports
	r.Enabled += st.Enabled
	r.Active += st.Active
	r.CounterPulses += st.CounterPulses
}

// RunSequential executes input once per slice on a fresh NFA engine,
// invoking onReport (if non-nil) for every report, and returns the
// aggregate. The union of reports across passes equals a single-pass run
// of the whole automaton; reports are delivered slice-major (all of slice
// 0's in offset order, then slice 1's, ...). A nil onReport runs the
// passes report-callback-free, like the engines' nil-guarded hooks.
func (p *Plan) RunSequential(input []byte, onReport func(sim.Report)) (Result, error) {
	res := Result{Passes: p.Passes()}
	for i := range p.Slices {
		sub, err := p.Extract(i)
		if err != nil {
			return res, err
		}
		e := sim.New(sub)
		if onReport != nil {
			e.OnReport = onReport
		}
		res.add(e.Run(input))
	}
	return res, nil
}

// RunOptions parameterizes Plan.Run.
type RunOptions struct {
	// Workers bounds the goroutines running slices; <= 0 means one per
	// CPU, 1 runs the slices inline in order.
	Workers int
	// OnReport, if non-nil, receives every report after all passes
	// complete, in the canonical merged order (see RunParallel).
	OnReport func(sim.Report)
	// Registry, if non-nil, is attached to every slice engine; sim.*
	// counters and the frontier histogram accumulate the per-slice work,
	// and engine.constructed counts the engines the run built.
	// Final registry contents are deterministic (counter sums and
	// histogram totals are order-independent), but note they describe
	// per-slice engine work: sim.symbols counts Passes() × len(input).
	Registry *telemetry.Registry
	// Tracer, if non-nil, is attached to every slice engine. It must be
	// safe for concurrent use (telemetry.NDJSON is); event interleaving
	// across slices is scheduling-dependent under Workers > 1.
	Tracer telemetry.Tracer
	// Spans, if non-nil, receives a "partition.run" phase span whose
	// children time slice extraction ("extract", near zero once the plan
	// has extracted the slice), engine construction ("construct"), slice
	// scanning ("scan"), and report merging ("merge"). Per-slice timings
	// aggregate into those nodes (each worker records into a fork adopted
	// in slice-index order), so the span tree is deterministic at any
	// worker count.
	Spans *telemetry.Spans
	// Governor, if non-nil, bounds the run: every slice checks in at the
	// partition.slice boundary before extracting, and each slice engine
	// runs governed (per-chunk budget checks, see sim.RunChecked). One
	// budget trip stops all slices cooperatively; the error is the trip.
	Governor *guard.Governor
	// Progress, if non-nil, is attached to every slice engine: each
	// heartbeats its chunk-boundary progress into the shared tracker
	// (atomic adds, so any worker count aggregates to the same totals).
	Progress *telemetry.ProgressTracker
	// Recorder, if non-nil, receives per-slice phase events and every
	// slice engine's chunk/trip events for postmortem dumps.
	Recorder *telemetry.FlightRecorder
	// Attribution, if non-nil, collects per-component cost-attribution
	// totals (internal/attr): every slice engine gets a slice-local ledger
	// committed after its pass, so the collector's folded totals are
	// identical at any worker or segment count (ledger commits are
	// commutative sums).
	Attribution *attr.Collector
	// Segments, when > 1, additionally splits each slice's scan of the
	// input into that many segment-parallel pieces (internal/segment):
	// segment 0 scans exactly, later segments speculatively, and a
	// validated stitch keeps the aggregate Result and the report multiset
	// identical to the unsegmented run. The slices' segment tasks share
	// one global work list, so Workers bounds total concurrency across
	// both dimensions. 0 or 1 keeps the scan sequential per slice (the
	// exact existing path); automatic resolution from input size is the
	// caller's job (segment.Resolve) — the zero value never changes
	// behavior. Counter-bearing slices cascade sequentially on their
	// master engine, which is still exact.
	//
	// Report-order caveat: with Segments > 1, same-offset reports within
	// one slice arrive in the canonical (offset, code, state) order rather
	// than engine emission order. Offsets are still ascending and ties
	// across slices still break by slice index; the multiset is unchanged.
	Segments int
	// NewEngine, if non-nil, constructs every slice engine (and, under
	// Segments > 1, every segment master and speculative engine); nil uses
	// the plain NFA interpreter (sim.New). The factory must be
	// deterministic so the report-stream contract holds at any worker or
	// segment count.
	NewEngine func(*automata.Automaton) (segment.Engine, error)
}

// RunParallel executes input once per slice, fanning the slices out over
// a worker pool with one fresh NFA engine per slice, and returns the same
// aggregate Result as RunSequential.
//
// Determinism contract: for a fixed Plan and input, the onReport callback
// sequence is identical for every workers value (including 1) and across
// runs. Reports are buffered per slice and delivered after all passes
// complete, ordered by input offset, ties broken by slice index and then
// by emission order within the slice — exactly RunSequential's report
// stream stably sorted by offset. Result is identical to RunSequential's.
//
// ctx cancellation abandons unstarted slices and returns ctx.Err(); a
// cancellable ctx is additionally observed mid-slice at engine chunk
// boundaries (a long input stops within ~4 KiB of the cancellation, not
// at the end of the pass). No reports are delivered on error.
func (p *Plan) RunParallel(ctx context.Context, workers int, input []byte, onReport func(sim.Report)) (Result, error) {
	return p.Run(ctx, input, RunOptions{Workers: workers, OnReport: onReport})
}

// Run is RunParallel with full options (telemetry attachment). See
// RunParallel for the determinism contract.
func (p *Plan) Run(ctx context.Context, input []byte, opts RunOptions) (Result, error) {
	res := Result{Passes: p.Passes()}
	stats := make([]sim.Stats, len(p.Slices))
	// A cancellable ctx without an explicit governor still gets mid-slice
	// cancellation observability: wrap it in a budget-free governor so the
	// slice engines check ctx at chunk boundaries. context.Background()
	// (Done() == nil) keeps the exact ungoverned path.
	gov := opts.Governor
	if gov == nil && ctx != nil && ctx.Done() != nil {
		gov = guard.New(ctx, guard.Budget{})
	}
	if opts.Segments > 1 {
		return p.runSegmented(ctx, input, opts, gov)
	}
	var buffered [][]sim.Report
	if opts.OnReport != nil {
		buffered = make([][]sim.Report, len(p.Slices))
	}
	// Phase spans: each worker records into its own fork; forks are
	// adopted in slice-index order after the barrier, so the merged
	// extract/scan aggregates are deterministic at any worker count.
	root := opts.Spans.Start("partition.run")
	var sliceSpans []*telemetry.Spans
	if opts.Spans != nil {
		sliceSpans = make([]*telemetry.Spans, len(p.Slices))
		for i := range sliceSpans {
			sliceSpans[i] = opts.Spans.Fork()
		}
	}
	err := parallel.ForEach(ctx, opts.Workers, len(p.Slices), func(i int) error {
		opts.Recorder.Record(telemetry.RecPhase, i, guard.SitePartitionSlice, 0)
		if err := gov.Boundary(guard.SitePartitionSlice, 0); err != nil {
			return err
		}
		var ss *telemetry.Spans
		if sliceSpans != nil {
			ss = sliceSpans[i]
		}
		esp := ss.Start("extract")
		sub, err := p.Extract(i)
		esp.End()
		if err != nil {
			return err
		}
		e, err := segment.Construct(opts.NewEngine, sub, ss.Start("construct"), opts.Registry)
		if err != nil {
			return err
		}
		e.SetRegistry(opts.Registry)
		e.SetTracer(opts.Tracer)
		e.SetGovernor(gov)
		e.SetProgress(opts.Progress)
		e.SetRecorder(opts.Recorder)
		var led *attr.Ledger
		if opts.Attribution != nil {
			led = opts.Attribution.Ledger(p.SliceCompOf(i))
			e.SetLedger(led)
		}
		if buffered != nil {
			e.SetOnReport(func(r sim.Report) { buffered[i] = append(buffered[i], r) })
		}
		rsp := ss.Start("scan")
		st, err := e.RunChecked(input)
		rsp.End()
		if led != nil {
			led.Commit()
		}
		stats[i] = st
		return err
	})
	// Adopt the per-slice span forks and sum stats on the error path too:
	// a truncated run still reports its partial phase spans and work done
	// (ForEach has waited for in-flight slices, so the forks are settled).
	for i := range sliceSpans {
		root.Adopt(sliceSpans[i])
	}
	for _, st := range stats {
		res.add(st)
	}
	if err != nil {
		root.End()
		return res, err
	}
	if buffered != nil {
		msp := root.Start("merge")
		merged := mergeReports(buffered)
		msp.End()
		for _, r := range merged {
			opts.OnReport(r)
		}
	}
	root.End()
	return res, nil
}

// runSegmented is Run's Segments > 1 path: every slice's scan is itself
// segment-parallel. Three phases share the one worker budget:
//
//  1. extract each slice and prepare its segment.Runner (per-slice
//     governor boundary and recorder phase event, like the unsegmented
//     path);
//  2. run every (slice, segment-task) pair off one flattened work list —
//     a counter-bearing slice contributes a single cascade task, a
//     counter-free slice one task per segment;
//  3. stitch each slice left-to-right on its master engine and merge.
//
// The aggregate Result equals the unsegmented run's exactly (the stitch
// validates or replays every speculative segment); Result.Stitch carries
// the speculation accounting. On a budget trip the partial Result sums
// each slice's exact master-scanned prefix, like the unsegmented path.
func (p *Plan) runSegmented(ctx context.Context, input []byte, opts RunOptions, gov *guard.Governor) (Result, error) {
	res := Result{Passes: p.Passes()}
	root := opts.Spans.Start("partition.run")
	var sliceSpans []*telemetry.Spans
	if opts.Spans != nil {
		sliceSpans = make([]*telemetry.Spans, len(p.Slices))
		for i := range sliceSpans {
			sliceSpans[i] = opts.Spans.Fork()
		}
	}
	runners := make([]*segment.Runner, len(p.Slices))
	err := parallel.ForEach(ctx, opts.Workers, len(p.Slices), func(i int) error {
		opts.Recorder.Record(telemetry.RecPhase, i, guard.SitePartitionSlice, 0)
		if err := gov.Boundary(guard.SitePartitionSlice, 0); err != nil {
			return err
		}
		var ss *telemetry.Spans
		if sliceSpans != nil {
			ss = sliceSpans[i]
		}
		esp := ss.Start("extract")
		sub, err := p.Extract(i)
		esp.End()
		if err != nil {
			return err
		}
		segOpts := segment.Options{
			Segments:       opts.Segments,
			Workers:        opts.Workers,
			CollectReports: opts.OnReport != nil,
			Registry:       opts.Registry,
			Tracer:         opts.Tracer,
			Spans:          ss,
			Governor:       gov,
			Progress:       opts.Progress,
			Recorder:       opts.Recorder,
			NewEngine:      opts.NewEngine,
		}
		if opts.Attribution != nil {
			segOpts.Attribution = opts.Attribution
			segOpts.AttrCompOf = p.SliceCompOf(i)
		}
		runners[i], err = segment.NewRunner(sub, input, segOpts)
		return err
	})
	if err == nil {
		// Flatten (slice, task) into one work list via prefix sums so the
		// segment scans of all slices share the worker pool.
		prefix := make([]int, len(runners)+1)
		for i, r := range runners {
			prefix[i+1] = prefix[i] + r.Tasks()
		}
		err = parallel.ForEach(ctx, opts.Workers, prefix[len(runners)], func(t int) error {
			s := sort.Search(len(runners), func(i int) bool { return prefix[i+1] > t })
			return runners[s].RunTask(t - prefix[s])
		})
	}
	// Stitch sequentially: each Finish is cheap when speculation committed,
	// and a replay after a trip stops at the next chunk boundary anyway.
	// Finishing on the error path too keeps partial stats (and ends the
	// runners' spans).
	var buffered [][]sim.Report
	if opts.OnReport != nil {
		buffered = make([][]sim.Report, len(p.Slices))
	}
	for i, r := range runners {
		if r == nil {
			continue // phase 1 failed before this slice was prepared
		}
		sres, serr := r.Finish(err)
		res.add(sres.Stats)
		res.Stitch.Add(sres.Stitch)
		if buffered != nil {
			buffered[i] = sres.Reports
		}
		if err == nil && serr != nil {
			err = serr
		}
	}
	for i := range sliceSpans {
		root.Adopt(sliceSpans[i])
	}
	if err != nil {
		root.End()
		return res, err
	}
	if buffered != nil {
		msp := root.Start("merge")
		merged := mergeReports(buffered)
		msp.End()
		for _, r := range merged {
			opts.OnReport(r)
		}
	}
	root.End()
	return res, nil
}

// mergeReports flattens per-slice report buffers into the canonical order:
// by offset, ties broken by slice index then within-slice emission order.
// Concatenating slice-major and stably sorting by offset yields exactly
// that (each buffer is already offset-ordered).
func mergeReports(buffered [][]sim.Report) []sim.Report {
	total := 0
	for _, b := range buffered {
		total += len(b)
	}
	merged := make([]sim.Report, 0, total)
	for _, b := range buffered {
		merged = append(merged, b...)
	}
	sort.SliceStable(merged, func(x, y int) bool {
		return merged[x].Offset < merged[y].Offset
	})
	return merged
}

// ForWorkers partitions a for CPU fan-out rather than for a device: the
// capacity is chosen so the plan has roughly `workers` slices (somewhat
// more when component sizes pack unevenly — extra slices simply queue on
// the worker pool) while never splitting a component, so Partition cannot
// fail. workers <= 0 means one slice per CPU; workers == 1 yields a
// single slice.
func ForWorkers(a *automata.Automaton, workers int) *Plan {
	workers = parallel.Workers(workers)
	sizes, _ := a.Components()
	total, largest := 0, 1
	for _, sz := range sizes {
		total += sz
		if sz > largest {
			largest = sz
		}
	}
	capacity := (total + workers - 1) / workers
	if capacity < largest {
		capacity = largest
	}
	if capacity < 1 {
		capacity = 1
	}
	p, err := Partition(a, capacity)
	if err != nil {
		// Unreachable: capacity >= largest component by construction.
		panic(fmt.Sprintf("partition: ForWorkers: %v", err))
	}
	return p
}

// EffectiveThroughput models the end-to-end symbol throughput of the
// partitioned benchmark on a device with the given per-pass symbol rate:
// every input symbol is streamed once per pass.
func (p *Plan) EffectiveThroughput(symbolsPerSec float64) float64 {
	if p.Passes() == 0 {
		return symbolsPerSec
	}
	return symbolsPerSec / float64(p.Passes())
}
