// Package prefilter implements two-stage scanning: extract each pattern's
// mandatory literal prefix ("anchor"), match all anchors simultaneously
// with one Aho–Corasick pass, and drive the full automaton's frontier only
// from anchor hits. This is the architecture production engines
// (Hyperscan's literal factoring) use to make large literal-heavy rule
// sets — ClamAV, YARA — cheap on CPUs, and it is exact: an anchor is the
// unique entry path of its component, so enabling the component at anchor
// hits reproduces precisely the matches of full NFA interpretation.
//
// Components without a usable anchor (head classes that are not single
// bytes, multiple start states, counters, anchors shorter than MinAnchor)
// fall back to an ordinary always-on sim engine embedded in the same
// Engine ("residual"), stepped in lockstep. The residual engine runs on
// the sub-automaton of those components, or — when no component is
// anchored — on the automaton itself, with an identity ID map instead of
// an extracted copy.
//
// The anchor plan, the matcher and the residual sub-automaton are
// compiled once per automaton and cached on it (automata.Compiled); every
// Engine on the automaton shares them, and New allocates only scratch.
//
// Engine mirrors sim.Engine's execution contract so the partition, segment,
// and stats layers can drive either engine through one interface:
//
//   - Stats are field-for-field the full NFA run's. Chain-state work that
//     the prefilter never performs is reconstructed exactly from the
//     matcher position via acmatch.PrefixWeights (chain states active and
//     enabled per symbol are pure functions of the Aho–Corasick state).
//   - Reports carry the same offsets, codes, and state IDs as sim, and
//     within one offset are delivered in the canonical (offset, code,
//     state) order — the three emit mechanisms (confirm frontier, anchor
//     tails, residual engine) are merged per symbol.
//   - CollectReports/MaxReports/OnReport/CodeCounts behave exactly as on
//     sim.Engine; RunChecked performs the same ~4 KiB cooperative budget
//     checks at guard.SitePrefilter.
//   - FrontierSnapshot/RestoreState make mid-stream handoff exact: the
//     snapshot is the confirm frontier plus the residual frontier (in
//     whole-automaton state IDs) plus one sentinel entry >= NumStates
//     encoding the Aho–Corasick state, so the segment scanner's
//     speculation stitch validates the matcher position too.
//
// One observability difference from sim remains: chain-state activations
// are accounted in Stats but not traced individually (the prefilter never
// visits them), so OnActivate traces cover confirm and residual states
// only.
package prefilter

import (
	"fmt"
	"slices"

	"automatazoo/internal/acmatch"
	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// MinAnchor is the minimum literal-prefix length worth prefiltering; below
// this, anchor hits are so frequent the indirection costs more than it
// saves.
const MinAnchor = 3

// govChunk is the governed input granularity, matching sim/dfa.
const govChunk = 4096

// anchor describes one accelerated component.
type anchor struct {
	literal []byte
	// tail is the last state of the anchor chain; on an anchor hit its
	// successors are enabled for the following symbol. The tail itself may
	// report (patterns equal to their anchor).
	tail automata.StateID
}

// pending is one report buffered inside the current symbol, awaiting the
// per-offset canonical merge. residual-sourced reports skip the ledger
// (the residual engine's ledger view already charged them).
type pending struct {
	rep   sim.Report
	resid bool
}

// tables is the compiled, read-only half of an Engine: the anchor plan,
// the Aho–Corasick matcher with its prefix weights, and the residual
// sub-automaton with its ID maps. One tables value per automaton lives in
// the automaton's cache for the automaton's lifetime and is shared by
// every Engine on it, concurrently; nothing here is written after compile.
// Engines embed it by value, which copies only headers, so the scan loop
// reads the matcher and weights without an extra indirection.
type tables struct {
	matcher *acmatch.Matcher // nil when no component is anchored
	anchors []anchor
	wa, we  []int64 // per-matcher-node chain active/enabled weights

	// residualAut holds the non-anchored components (nil when every
	// component is anchored). When none is anchored it is the automaton
	// itself and the ID maps are nil (identity); otherwise it is the
	// extracted sub-automaton, residualInv maps its local IDs to
	// whole-automaton IDs, and residualLoc maps back (NoState for states
	// of anchored components).
	residualAut *automata.Automaton
	residualInv []automata.StateID
	residualLoc []automata.StateID

	anchored   int
	unanchored int
	err        error
}

// tablesKey caches the compiled tables on each automaton.
var tablesKey = automata.NewCacheKey("prefilter")

// Engine is the two-stage scanner over one automaton, execution-contract
// compatible with sim.Engine. Reusable across runs (Reset) but not safe
// for concurrent use. Everything but the compiled tables is per-engine
// scratch, so New is cheap after the automaton's first engine.
type Engine struct {
	a *automata.Automaton
	tables

	// residual runs the non-anchored components in lockstep (nil when
	// every component is anchored).
	residual *sim.Engine

	numStates int

	// Confirm interpreter over the full automaton: the frontier holds the
	// anchored components' post-chain states, seeded by anchor hits. The
	// class, successor and report-code arrays are the frozen automaton's
	// own — the same arrays sim's compiled tables point at — not copies.
	sets     []charset.Set
	css      []charset.Handle
	edgeOff  []uint32
	edges    []automata.StateID
	code     []int32
	frontier []automata.StateID
	next     []automata.StateID
	mark     []uint32 // allocated only when some component is anchored
	gen      uint32

	acState int32
	offset  int64

	// Report contract, field-for-field sim.Engine's.
	CollectReports bool
	MaxReports     int
	OnReport       func(sim.Report)
	CodeCounts     map[int32]int64

	reports    []sim.Report
	stats      sim.Stats // this engine's share; Stats() folds the residual in
	anchorHits int64
	pend       []pending

	onAnchorFn func(int) // bound once so the hot loop never allocates

	// Telemetry hooks, nil-guarded exactly like sim.Engine's so the
	// disabled path stays allocation-free.
	telemetryOn     bool
	tracer          telemetry.Tracer
	reg             *telemetry.Registry
	frontierHist    *telemetry.Histogram
	published       sim.Stats
	pubAnchorHits   int64
	pubResidualWork int64
	gov             *guard.Governor
	prog            *telemetry.ProgressTracker
	rec             *telemetry.FlightRecorder
	ckpt            sim.Checkpointer

	led             *attr.Ledger
	ledMark         int64
	anchorSlot      []int32 // per-anchor attribution slot (when led != nil)
	anchorCompSlots []int32 // distinct slots of anchored components
}

// New returns an engine for a. The automaton's tables are compiled on the
// first call for a and shared by every later engine on it, so New is
// otherwise a scratch allocation.
func New(a *automata.Automaton) (*Engine, error) {
	t := automata.Compiled(a, tablesKey, compile)
	if t.err != nil {
		return nil, t.err
	}
	n := a.NumStates()
	e := &Engine{
		a:         a,
		tables:    *t,
		numStates: n,
		sets:      a.Table().Sets(),
		css:       a.ClassHandles(),
		code:      a.ReportCodes(),
	}
	e.edgeOff, e.edges = a.CSR()
	if t.anchored > 0 {
		e.mark = make([]uint32, n)
	}
	if t.residualAut != nil {
		e.residual = sim.New(t.residualAut)
		e.residual.OnReport = e.residReport
	}
	e.onAnchorFn = e.onAnchor
	e.Reset()
	return e, nil
}

// compile analyzes a: it extracts every component's anchor, compiles the
// anchors into one matcher, and sets the residual components aside.
func compile(a *automata.Automaton) *tables {
	_, compIdx := a.Components()
	nComp := 0
	for _, c := range compIdx {
		if int(c)+1 > nComp {
			nComp = int(c) + 1
		}
	}
	// Group start states per component.
	starts := make([][]automata.StateID, nComp)
	for _, s := range a.Starts() {
		starts[compIdx[s]] = append(starts[compIdx[s]], s)
	}
	pred := a.Reverse()

	// Components containing counter elements cannot be confirmed by the
	// stateless frontier stepper; they stay in the residual engine.
	hasCounter := make([]bool, nComp)
	for i := 0; i < a.NumStates(); i++ {
		if a.Kind(automata.StateID(i)) == automata.KindCounter {
			hasCounter[compIdx[i]] = true
		}
	}

	t := &tables{}
	anchoredComp := make([]bool, nComp)
	var literals [][]byte
	for c := 0; c < nComp; c++ {
		if hasCounter[c] {
			t.unanchored++
			continue
		}
		lit, tail, ok := extractAnchor(a, starts[c], pred)
		if ok {
			anchoredComp[c] = true
			t.anchors = append(t.anchors, anchor{literal: lit, tail: tail})
			literals = append(literals, lit)
			t.anchored++
		} else {
			t.unanchored++
		}
	}
	if len(literals) > 0 {
		m, err := acmatch.Compile(literals)
		if err != nil {
			return &tables{err: fmt.Errorf("prefilter: %w", err)}
		}
		wa, we, err := m.PrefixWeights(literals)
		if err != nil {
			return &tables{err: fmt.Errorf("prefilter: %w", err)}
		}
		t.matcher, t.wa, t.we = m, wa, we
	}
	switch {
	case t.unanchored == 0:
		// Everything is anchored: no residual engine.
	case t.anchored == 0:
		// Nothing is anchored: the residual is the whole automaton, and
		// its ID maps are the identity.
		t.residualAut = a
	default:
		res, inv, err := extractComponents(a, compIdx, func(c int32) bool { return !anchoredComp[c] })
		if err != nil {
			return &tables{err: err}
		}
		t.residualAut, t.residualInv = res, inv
		t.residualLoc = make([]automata.StateID, a.NumStates())
		for i := range t.residualLoc {
			t.residualLoc[i] = automata.NoState
		}
		for loc, g := range inv {
			t.residualLoc[g] = automata.StateID(loc)
		}
	}
	return t
}

// toGlobal translates a residual-engine state ID to its whole-automaton ID.
func (e *Engine) toGlobal(loc automata.StateID) automata.StateID {
	if e.residualInv == nil {
		return loc
	}
	return e.residualInv[loc]
}

// toLocal translates a whole-automaton state ID to the residual engine's
// numbering; ok is false for states of anchored components.
func (e *Engine) toLocal(id automata.StateID) (loc automata.StateID, ok bool) {
	switch {
	case e.residual == nil:
		return automata.NoState, false
	case e.residualLoc == nil:
		return id, true
	}
	loc = e.residualLoc[id]
	return loc, loc != automata.NoState
}

// Automaton returns the automaton the engine executes.
func (e *Engine) Automaton() *automata.Automaton { return e.a }

// Anchored and Unanchored report how many components each strategy covers.
func (e *Engine) Anchored() int   { return e.anchored }
func (e *Engine) Unanchored() int { return e.unanchored }

// residReport buffers one residual-engine report, translated back to
// whole-automaton state numbering, into the current symbol's merge buffer.
func (e *Engine) residReport(r sim.Report) {
	e.pend = append(e.pend, pending{
		rep:   sim.Report{Offset: r.Offset, State: e.toGlobal(r.State), Code: r.Code},
		resid: true,
	})
}

// onAnchor handles one anchor hit at the current offset: the chain tail is
// active, so emit its report (if any) and enable its successors for the
// next symbol.
func (e *Engine) onAnchor(pat int) {
	an := e.anchors[pat]
	e.anchorHits++
	if e.led != nil {
		e.led.AddWork(e.anchorSlot[pat], int64(len(an.literal)))
	}
	if e.a.IsReport(an.tail) {
		e.pend = append(e.pend, pending{rep: sim.Report{Offset: e.offset, State: an.tail, Code: e.code[an.tail]}})
	}
	for _, t := range e.edges[e.edgeOff[an.tail]:e.edgeOff[an.tail+1]] {
		e.enable(t)
	}
}

// enable puts id on the next-symbol confirm frontier (deduplicated).
func (e *Engine) enable(id automata.StateID) {
	if e.mark[id] != e.gen {
		e.mark[id] = e.gen
		e.next = append(e.next, id)
	}
}

// activate processes a confirm state that matched the current symbol.
// Confirm states are never start states and the frontier is deduplicated,
// so activation needs no per-cycle mark.
func (e *Engine) activate(id automata.StateID) {
	e.stats.Active++
	if e.telemetryOn && e.tracer != nil {
		e.tracer.OnActivate(e.offset, id)
	}
	if e.led != nil {
		e.led.Activate(id)
	}
	if e.a.IsReport(id) {
		e.pend = append(e.pend, pending{rep: sim.Report{Offset: e.offset, State: id, Code: e.code[id]}})
	}
	for _, t := range e.edges[e.edgeOff[id]:e.edgeOff[id+1]] {
		e.enable(t)
	}
}

// flushPend sorts the symbol's buffered reports into canonical (code,
// state) order — all offsets are equal — and emits them. A manual
// insertion sort keeps the disabled path allocation-free (sort.Slice's
// closure would allocate every symbol).
func (e *Engine) flushPend() {
	p := e.pend
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && (p[j].rep.Code < p[j-1].rep.Code ||
			(p[j].rep.Code == p[j-1].rep.Code && p[j].rep.State < p[j-1].rep.State)); j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	for i := range p {
		e.emit(&p[i])
	}
	e.pend = p[:0]
}

// emit delivers one merged report, mirroring sim.Engine.emit. Residual
// reports skip the ledger: the residual engine's ledger view (a View of
// e.led sharing its buffer) already attributed them.
func (e *Engine) emit(p *pending) {
	e.stats.Reports++
	if e.CodeCounts != nil {
		e.CodeCounts[p.rep.Code]++
	}
	if e.led != nil && !p.resid {
		e.led.Report(p.rep.Code)
	}
	if e.tracer != nil {
		e.tracer.OnReport(p.rep.Offset, p.rep.State, p.rep.Code)
	}
	if e.OnReport != nil {
		e.OnReport(p.rep)
	}
	if e.CollectReports && (e.MaxReports == 0 || len(e.reports) < e.MaxReports) {
		e.reports = append(e.reports, p.rep)
	}
}

// stepTelemetry runs the per-symbol hooks; called only when telemetryOn.
func (e *Engine) stepTelemetry(b byte) {
	if e.tracer != nil {
		e.tracer.OnSymbol(e.offset, b)
	}
	if e.frontierHist != nil {
		e.frontierHist.Observe(e.frontierLenAll())
	}
}

// frontierLenAll is the combined enabled-frontier size: confirm plus
// residual (chain states are virtual and carry no per-state frontier).
func (e *Engine) frontierLenAll() int64 {
	n := int64(len(e.frontier))
	if e.residual != nil {
		n += int64(e.residual.FrontierLen())
	}
	return n
}

// Step consumes one input symbol.
func (e *Engine) Step(b byte) {
	e.stats.Symbols++
	if e.telemetryOn {
		e.stepTelemetry(b)
	}
	// Enabled accounting: chain states armed for this symbol are a pure
	// function of the matcher position before the byte; confirm states are
	// the frontier itself. (Chain heads are all-input starts — excluded,
	// as sim's indexed engine excludes them.)
	if e.matcher != nil {
		e.stats.Enabled += e.we[e.acState]
	}
	e.stats.Enabled += int64(len(e.frontier))
	for _, s := range e.frontier {
		if e.sets[e.css[s]].Contains(b) {
			e.activate(s)
		}
	}
	if e.matcher != nil {
		e.acState = e.matcher.StepFrom(e.acState, b, e.onAnchorFn)
		// Chain states that matched this byte: every (pattern, position)
		// whose prefix is a suffix of the input, read off the new state.
		e.stats.Active += e.wa[e.acState]
	}
	if e.residual != nil {
		e.residual.Step(b)
	}
	if len(e.pend) > 0 {
		e.flushPend()
	}
	// Swap frontiers and advance the generation, exactly as sim does.
	e.frontier, e.next = e.next, e.frontier[:0]
	e.gen++
	if e.gen < 2 { // wrapped: clear marks, keep gen >= 2 for EnableState
		for i := range e.mark {
			e.mark[i] = 0
		}
		e.gen = 2
		for _, s := range e.frontier {
			e.mark[s] = e.gen - 1
		}
	}
	e.offset++
}

// Run consumes the entire input and returns the accumulated statistics.
// It may be called repeatedly to continue the same logical stream.
func (e *Engine) Run(input []byte) sim.Stats {
	for _, b := range input {
		e.Step(b)
	}
	if e.reg != nil {
		e.flushStats()
	}
	if e.led != nil {
		e.flushLedger()
	}
	return e.Stats()
}

// RunChecked is Run under the attached governor, chunked at
// guard.SitePrefilter exactly as sim chunks at sim.chunk: a boundary check
// (fault injection, deadline, input-byte accounting) before each ~4 KiB
// chunk, a heartbeat and active-set check after it. The governor's trip is
// sticky, so a tripped engine stays tripped at every later boundary. With
// no governor, progress tracker, or recorder attached it is exactly Run.
func (e *Engine) RunChecked(input []byte) (sim.Stats, error) {
	if e.gov == nil && e.prog == nil && e.rec == nil && e.ckpt == nil {
		return e.Run(input), nil
	}
	var err error
	for off := 0; off < len(input); off += govChunk {
		end := off + govChunk
		if end > len(input) {
			end = len(input)
		}
		n := int64(end - off)
		if e.rec != nil {
			e.rec.Record(telemetry.RecBudget, 0, guard.SitePrefilter, n)
		}
		if err = e.gov.Boundary(guard.SitePrefilter, n); err != nil {
			break
		}
		for _, b := range input[off:end] {
			e.Step(b)
		}
		fl := e.frontierLenAll()
		if e.prog != nil {
			e.prog.Beat(n, fl)
		}
		if e.led != nil {
			e.flushLedger()
		}
		if e.ckpt != nil {
			if err = e.ckpt.Boundary(n); err != nil {
				break
			}
		}
		if err = e.gov.CheckActive(fl); err != nil {
			break
		}
	}
	if err != nil && e.rec != nil {
		if t := guard.AsTrip(err); t != nil {
			e.rec.Record(telemetry.RecTrip, 0, t.Budget, t.Actual)
		}
	}
	if e.reg != nil {
		e.flushStats()
	}
	if e.led != nil {
		e.flushLedger()
	}
	return e.Stats(), err
}

// Stats returns the combined statistics since the last Reset — exactly the
// full NFA run's. Reports are counted once (residual reports flow through
// this engine's emit); Symbols are the stream's, not per-stage.
func (e *Engine) Stats() sim.Stats {
	st := e.stats
	if e.residual != nil {
		rs := e.residual.Stats()
		st.Enabled += rs.Enabled
		st.Active += rs.Active
		st.CounterPulses += rs.CounterPulses
	}
	return st
}

// AnchorHits returns the number of anchor-literal occurrences since Reset.
func (e *Engine) AnchorHits() int64 { return e.anchorHits }

// Reports returns the reports collected since the last Reset (only
// populated when CollectReports is set).
func (e *Engine) Reports() []sim.Report { return e.reports }

// Reset clears all runtime state, mirroring sim.Engine.Reset.
func (e *Engine) Reset() {
	if e.reg != nil {
		e.flushStats()
	}
	if e.led != nil {
		e.flushLedger()
	}
	e.frontier = e.frontier[:0]
	e.next = e.next[:0]
	e.pend = e.pend[:0]
	e.gen++
	if e.gen < 2 {
		for i := range e.mark {
			e.mark[i] = 0
		}
		e.gen = 2
	}
	e.acState = 0
	e.offset = 0
	e.stats = sim.Stats{}
	e.anchorHits = 0
	e.published = sim.Stats{}
	e.pubAnchorHits = 0
	e.pubResidualWork = 0
	e.ledMark = 0
	e.reports = e.reports[:0]
	if e.residual != nil {
		e.residual.Reset()
	}
}

// SetOnReport sets the OnReport callback (nil detaches).
func (e *Engine) SetOnReport(fn func(sim.Report)) { e.OnReport = fn }

// FrontierLen returns the combined enabled-frontier size.
func (e *Engine) FrontierLen() int { return int(e.frontierLenAll()) }

// SetTracer attaches an event tracer (nil detaches). The trace covers
// symbols, reports, and confirm/residual... — chain-state activations are
// accounted in Stats but not traced (see the package comment).
func (e *Engine) SetTracer(t telemetry.Tracer) {
	e.tracer = t
	e.syncTelemetryOn()
}

func (e *Engine) syncTelemetryOn() {
	e.telemetryOn = e.tracer != nil || e.frontierHist != nil
}

// SetGovernor attaches a run governor (nil detaches); enforced by
// RunChecked only, like sim.
func (e *Engine) SetGovernor(g *guard.Governor) { e.gov = g }

// SetProgress attaches a live-progress tracker (nil detaches).
func (e *Engine) SetProgress(t *telemetry.ProgressTracker) { e.prog = t }

// SetRecorder attaches a flight recorder (nil detaches).
func (e *Engine) SetRecorder(r *telemetry.FlightRecorder) { e.rec = r }

// SetCheckpointer attaches a durable-checkpoint hook (nil detaches):
// RunChecked offers it the stream after every chunk, like sim.
func (e *Engine) SetCheckpointer(c sim.Checkpointer) { e.ckpt = c }

// FlushTelemetry publishes statistics and ledger bytes accumulated since
// the last flush, so a mid-stream snapshot (checkpoint save) reflects
// every byte scanned so far. The residual engine's counters fold into
// the combined flush, exactly as at run end.
func (e *Engine) FlushTelemetry() {
	if e.reg != nil {
		e.flushStats()
	}
	if e.led != nil {
		e.flushLedger()
	}
}

// SetRegistry attaches a metrics registry (nil detaches). Combined run
// statistics flush to the same sim.* counters the NFA engine publishes —
// the stats layer derives Table-I dynamics from those deltas regardless of
// engine — plus the prefilter.anchor_hits / prefilter.residual_work
// counters behind the azoo_prefilter_* Prometheus families. The embedded
// residual engine deliberately gets no registry: its work is folded into
// the combined flush, and attaching it too would double-count.
func (e *Engine) SetRegistry(r *telemetry.Registry) {
	e.reg = r
	if r == nil {
		e.frontierHist = nil
		e.syncTelemetryOn()
		return
	}
	e.frontierHist = r.Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	e.published = e.Stats()
	e.pubAnchorHits = e.anchorHits
	e.pubResidualWork = e.residualWork()
	e.syncTelemetryOn()
}

// residualWork is the residual engine's enabled-frontier work sum — the
// cost the prefilter did NOT save (0 when fully anchored).
func (e *Engine) residualWork() int64 {
	if e.residual == nil {
		return 0
	}
	return e.residual.Stats().Enabled
}

// flushStats publishes stats accumulated since the last flush.
func (e *Engine) flushStats() {
	d := e.reg
	if d == nil {
		return
	}
	cur := e.Stats()
	d.Counter("sim.symbols").Add(cur.Symbols - e.published.Symbols)
	d.Counter("sim.enabled").Add(cur.Enabled - e.published.Enabled)
	d.Counter("sim.active").Add(cur.Active - e.published.Active)
	d.Counter("sim.counter_pulses").Add(cur.CounterPulses - e.published.CounterPulses)
	d.Counter("sim.reports").Add(cur.Reports - e.published.Reports)
	d.Counter("prefilter.anchor_hits").Add(e.anchorHits - e.pubAnchorHits)
	rw := e.residualWork()
	d.Counter("prefilter.residual_work").Add(rw - e.pubResidualWork)
	e.published = cur
	e.pubAnchorHits = e.anchorHits
	e.pubResidualWork = rw
}

// SetLedger attaches a cost-attribution ledger (nil detaches). The ledger
// is this engine's whole state space; the residual engine receives a View
// sharing the same buffer, remapped to its local numbering, so one
// Commit/Discard by the caller covers both stages. Anchored components'
// scanned bytes are charged at flush points; anchor hits charge one work
// unit per literal byte (the chain work sim would have done).
func (e *Engine) SetLedger(l *attr.Ledger) {
	e.led = l
	e.ledMark = e.stats.Symbols
	if l == nil {
		if e.residual != nil {
			e.residual.SetLedger(nil)
		}
		return
	}
	e.anchorSlot = make([]int32, len(e.anchors))
	e.anchorCompSlots = e.anchorCompSlots[:0]
	seen := make(map[int32]bool, len(e.anchors))
	for i, an := range e.anchors {
		s := l.Slot(an.tail)
		e.anchorSlot[i] = s
		if !seen[s] {
			seen[s] = true
			e.anchorCompSlots = append(e.anchorCompSlots, s)
		}
	}
	slices.Sort(e.anchorCompSlots)
	if e.residual != nil {
		compOf := make([]int32, e.residualAut.NumStates())
		for loc := range compOf {
			compOf[loc] = l.Slot(e.toGlobal(automata.StateID(loc)))
		}
		e.residual.SetLedger(l.View(compOf))
	}
}

// flushLedger charges bytes scanned since the last flush to every anchored
// component, and nudges the residual engine to flush its own byte
// watermark (a zero-length Run flushes without consuming symbols).
func (e *Engine) flushLedger() {
	if d := e.stats.Symbols - e.ledMark; d > 0 {
		for _, slot := range e.anchorCompSlots {
			e.led.AddBytes(slot, d)
		}
	}
	e.ledMark = e.stats.Symbols
	if e.residual != nil {
		e.residual.Run(nil)
	}
}

// SetOffset positions the engine at an absolute stream offset without
// touching any other state (see sim.Engine.SetOffset).
func (e *Engine) SetOffset(off int64) {
	e.offset = off
	if e.residual != nil {
		e.residual.SetOffset(off)
	}
}

// EnableState arms a whole-automaton state for the next Step, routing
// residual-component states to the embedded residual engine.
func (e *Engine) EnableState(id automata.StateID) {
	if loc, ok := e.toLocal(id); ok {
		e.residual.EnableState(loc)
		return
	}
	prev := e.gen - 1
	if e.mark[id] == prev {
		return
	}
	e.mark[id] = prev
	e.frontier = append(e.frontier, id)
}

// FrontierSnapshot returns the canonical continuation set: the sorted
// union of the confirm frontier and the residual frontier (whole-automaton
// IDs), plus one sentinel entry NumStates+acState encoding the matcher
// position. The sentinel sorts last, so snapshots from engines at the same
// stream position are equal exactly when frontier AND matcher state agree
// — the condition under which all future stats and reports coincide.
func (e *Engine) FrontierSnapshot() []automata.StateID {
	f := append([]automata.StateID(nil), e.frontier...)
	if e.residual != nil {
		for _, loc := range e.residual.FrontierSnapshot() {
			f = append(f, e.toGlobal(loc))
		}
	}
	slices.Sort(f)
	return append(f, automata.StateID(e.numStates)+automata.StateID(e.acState))
}

// RestoreState resets the engine and re-seeds it to continue the logical
// stream at s, decoding FrontierSnapshot's encoding: entries >= NumStates
// restore the matcher state, residual-component entries re-arm the
// residual engine, the rest the confirm frontier. Counter snapshots are
// forwarded to the residual engine (anchored components never hold
// counters).
func (e *Engine) RestoreState(s *sim.StreamState) {
	e.Reset()
	var rs sim.StreamState
	rs.Offset = s.Offset
	for _, id := range s.Frontier {
		if int(id) >= e.numStates {
			e.acState = int32(int(id) - e.numStates)
			continue
		}
		if loc, ok := e.toLocal(id); ok {
			rs.Frontier = append(rs.Frontier, loc)
			continue
		}
		e.EnableState(id)
	}
	for _, c := range s.Counters {
		if loc, ok := e.toLocal(c.ID); ok {
			rs.Counters = append(rs.Counters, sim.CounterSnapshot{ID: loc, Value: c.Value, Latched: c.Latched})
		}
	}
	if e.residual != nil {
		e.residual.RestoreState(&rs)
	}
	e.offset = s.Offset
}

// CaptureState snapshots the engine between Run calls in RestoreState's
// encoding: FrontierSnapshot (confirm + residual frontiers plus the
// matcher-state sentinel) and the residual engine's counter snapshots
// translated to whole-automaton IDs. The snapshot shares no storage with
// the engine, and restoring it into a fresh engine continues the stream
// with identical reports and stats.
func (e *Engine) CaptureState() *sim.StreamState {
	s := &sim.StreamState{Offset: e.offset, Frontier: e.FrontierSnapshot()}
	if e.residual != nil {
		// The local→global map is ascending, so the sorted local
		// counters translate to sorted global counters.
		for _, c := range e.residual.CaptureState().Counters {
			s.Counters = append(s.Counters, sim.CounterSnapshot{
				ID: e.toGlobal(c.ID), Value: c.Value, Latched: c.Latched,
			})
		}
	}
	return s
}

// extractAnchor finds the component's literal prefix: the component must
// have exactly one all-input start state, and the chain from it must be
// singleton-class states with out-degree 1 and no other entries (in-degree
// 1, no start flags, no incoming loops) for at least MinAnchor states.
// The anchor stops growing at the first state that reports, branches, has
// a non-singleton class, or has extra predecessors.
func extractAnchor(a *automata.Automaton, starts []automata.StateID, pred [][]automata.StateID) ([]byte, automata.StateID, bool) {
	if len(starts) != 1 || a.Start(starts[0]) != automata.StartAllInput {
		return nil, 0, false
	}
	cur := starts[0]
	if len(pred[cur]) != 0 {
		return nil, 0, false // re-enterable head: not a pure prefix
	}
	var lit []byte
	var tail automata.StateID
	for {
		cls := a.Class(cur)
		if cls.Count() != 1 || a.Kind(cur) != automata.KindSTE {
			break // cur is NOT part of the literal
		}
		lit = append(lit, cls.Bytes()[0])
		tail = cur
		if a.IsReport(cur) {
			// The anchor itself completes a match; stop here so the hit
			// can emit the report.
			break
		}
		succ := a.Succ(cur)
		if len(succ) != 1 {
			break
		}
		nxt := succ[0]
		if nxt == cur || len(pred[nxt]) != 1 || a.Start(nxt) != automata.StartNone {
			break
		}
		cur = nxt
	}
	return anchorResult(lit, tail)
}

func anchorResult(lit []byte, tail automata.StateID) ([]byte, automata.StateID, bool) {
	if len(lit) < MinAnchor {
		return nil, 0, false
	}
	return lit, tail, true
}

// extractComponents rebuilds the sub-automaton of the components selected
// by keep, returning it with the local→original state-ID map (locals are
// assigned in ascending original order).
func extractComponents(a *automata.Automaton, compIdx []int32, keep func(int32) bool) (*automata.Automaton, []automata.StateID, error) {
	b := automata.NewBuilder()
	newID := map[automata.StateID]automata.StateID{}
	var inv []automata.StateID
	n := a.NumStates()
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		if !keep(compIdx[i]) {
			continue
		}
		var nid automata.StateID
		if a.Kind(id) == automata.KindCounter {
			cfg, _ := a.CounterConfig(id)
			nid = b.AddCounter(cfg.Target, cfg.Mode)
		} else {
			nid = b.AddSTE(a.Class(id), a.Start(id))
		}
		if a.IsReport(id) {
			b.SetReport(nid, a.ReportCode(id))
		}
		newID[id] = nid
		inv = append(inv, id)
	}
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		if !keep(compIdx[i]) {
			continue
		}
		for _, t := range a.Succ(id) {
			b.AddEdge(newID[id], newID[t])
		}
	}
	res, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return res, inv, nil
}
