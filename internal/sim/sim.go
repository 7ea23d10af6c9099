// Package sim implements a VASim-equivalent execution engine for
// homogeneous automata: cycle-accurate active-set NFA interpretation with
// report capture and the dynamic profiling counters (active set, report
// rate) that the AutomataZoo paper's Table I and Figure 1 are built from.
//
// The engine follows the Micron-AP execution model:
//
//	per input symbol:
//	  enabled ∧ class-match  → active
//	  active ∧ reporting     → report(offset, code)
//	  active                 → enable STE successors (next symbol),
//	                           pulse counter successors (this symbol)
//	  counter at target      → fire (enable successors / report), then
//	                           roll over or latch
//
// Two optimizations make paper-scale benchmarks (ClamAV: 2.3M states, 33k
// always-on subgraphs) simulable without changing semantics:
//
//   - all-input start states are never iterated; a 256-entry byte→starts
//     index yields exactly the matching ones per symbol, and
//   - the enabled frontier is a dense list deduplicated with generation
//     marks, so per-symbol cost is O(frontier + matches), not O(states).
package sim

import (
	"slices"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/telemetry"
)

// Report records one match: the automaton entered a reporting state (or a
// reporting counter fired) at the given input offset.
type Report struct {
	Offset int64 // 0-based index of the symbol that caused the report
	State  automata.StateID
	Code   int32
}

// Stats aggregates the dynamic profile of a run.
type Stats struct {
	// Symbols is the number of input symbols consumed.
	Symbols int64
	// Enabled is the summed size of the per-symbol enabled frontier,
	// excluding all-input start states (which are enabled by definition
	// and cost nothing in the indexed engine). Enabled/Symbols is the
	// CPU-work proxy for sequential engines.
	Enabled int64
	// Active is the summed count of states that matched per symbol,
	// including start states. Active/Symbols is the paper's "active set".
	Active int64
	// CounterPulses counts count-enable deliveries, coalesced to at most
	// one per counter per cycle; same-cycle chained counter-to-counter
	// fires are included.
	CounterPulses int64
	// Reports counts emitted reports.
	Reports int64
}

// EnabledAvg returns mean enabled-frontier size per symbol.
func (s Stats) EnabledAvg() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.Enabled) / float64(s.Symbols)
}

// ActiveAvg returns the mean number of matching states per symbol — the
// paper's "active set" column.
func (s Stats) ActiveAvg() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.Active) / float64(s.Symbols)
}

// ReportRate returns reports per input symbol.
func (s Stats) ReportRate() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.Reports) / float64(s.Symbols)
}

// Engine executes one automaton over byte streams. It is reusable across
// runs (Reset) but not safe for concurrent use; run parallel streams with
// one Engine each. An Engine is two halves: the compiled tables, built
// once per automaton and shared read-only by every Engine on it (see
// tables), and the per-engine scratch below — frontiers, marks, counter
// values, statistics and hooks — which is all New allocates after the
// automaton's first engine.
type Engine struct {
	a *automata.Automaton
	tables

	// Frontier state. mark[i]==gen means state i is in the next frontier;
	// amark[i]==gen means state i already activated this cycle (a state can
	// be both an all-input start and a successor — it must act once).
	frontier []automata.StateID
	next     []automata.StateID
	mark     []uint32
	amark    []uint32
	gen      uint32

	// Counter runtime state. pulsed is the dense, deterministically
	// ordered list of counters that received a count-enable this cycle;
	// pulseMark[id] dedupes deliveries (a counter's count-enable input is
	// a single wire: at most one increment per counter per cycle, no
	// matter how many predecessors pulse it or chained counters fire into
	// it). A map here would make multi-counter resolution follow Go's
	// randomized iteration order — see fireCounters.
	counterVal map[automata.StateID]uint32
	pulsed     []automata.StateID
	pulseMark  []bool // allocated only when the automaton has counters
	latched    map[automata.StateID]bool

	offset int64

	// CollectReports controls whether Run returns the report list. Count
	// and rate statistics are always maintained.
	CollectReports bool
	// MaxReports bounds the collected report list (0 = unlimited).
	MaxReports int
	// OnReport, if set, is invoked for every report regardless of
	// CollectReports.
	OnReport func(Report)
	// CodeCounts, if non-nil, accumulates per-report-code counts (used by
	// the Snort report-rate experiment).
	CodeCounts map[int32]int64

	reports []Report
	stats   Stats

	// Telemetry hooks. All are nil by default. The hot loop tests only the
	// single telemetryOn flag, so the disabled path costs one predictable
	// branch per symbol and per activation and zero allocations (asserted
	// by TestNilTelemetryZeroAllocs); the individual nil guards run only
	// once some hook is attached.
	telemetryOn  bool // any of prof/tracer/frontierHist attached
	prof         *telemetry.StateProfile
	tracer       telemetry.Tracer
	reg          *telemetry.Registry
	frontierHist *telemetry.Histogram
	published    Stats // portion of stats already flushed to reg

	// spans, when attached, records one aggregated "sim.run" phase span
	// per Run call. It is deliberately not part of telemetryOn: the span
	// is opened outside the per-symbol loop, so the disabled path stays a
	// nil-receiver no-op with zero allocations (see the allocguard test).
	spans *telemetry.Spans

	// gov, when attached, bounds the run: RunChecked consumes the input
	// in chunks and asks the governor for permission at each chunk
	// boundary. Like spans it is outside telemetryOn — the ungoverned
	// RunChecked path is byte-for-byte the Run loop.
	gov *guard.Governor

	// prog and rec are the live-ops hooks, fed at the same chunk
	// boundaries the governor checks: prog heartbeats bytes-scanned and
	// frontier size to the progress aggregator; rec logs each budget
	// check (and any trip) to the flight recorder. Both are nil-receiver
	// no-ops and, like gov, outside telemetryOn — all-nil RunChecked is
	// byte-for-byte the Run loop (asserted by the allocguard tests).
	prog *telemetry.ProgressTracker
	rec  *telemetry.FlightRecorder

	// led, when attached, attributes runtime cost to source patterns: one
	// frontier-work unit per activation, one report per emit, and scanned
	// bytes flushed at the same chunk boundaries the governor checks (plus
	// run end). Like gov/prog/rec it is outside telemetryOn and
	// nil-guarded at every touch point, so the disabled path stays
	// allocation-free (asserted by the allocguard test). ledMark is the
	// Symbols watermark of the last byte flush.
	led     *attr.Ledger
	ledMark int64

	// ckpt, when attached, is offered the stream at every chunk boundary
	// so it can persist a checkpoint (internal/ckpt). Like gov/prog/rec it
	// is outside telemetryOn and nil-guarded, so the disabled path stays
	// allocation-free (asserted by the allocguard test).
	ckpt Checkpointer
}

// Checkpointer is the durable-checkpoint hook: RunChecked calls Boundary
// with the chunk's byte count after each chunk completes, and the
// implementation decides whether the accumulated interval warrants a
// save (capturing the engine via CaptureState). A returned error stops
// the run like a governor trip.
type Checkpointer interface {
	Boundary(n int64) error
}

// Options tune the engine's internal strategies; the zero value is the
// production configuration. The Disable* knob exists for the ablation
// benchmarks quantifying the design choice.
type Options struct {
	// NoStartIndex disables the byte→starts index: every all-input start
	// state is tested against every symbol, the naive strategy the index
	// replaces.
	NoStartIndex bool
}

// tables is the compiled, read-only half of an Engine. The per-state
// arrays are the frozen automaton's own (not copies); the flags and the
// start lists are derived once. One tables value per automaton lives in
// the automaton's cache for the automaton's lifetime and is shared by
// every Engine on it, concurrently — nothing here is ever written after
// compile. Engines embed it by value, which copies only slice headers.
type tables struct {
	sets      []charset.Set      // interned class storage
	css       []charset.Handle   // per-state class handle (a's array)
	edgeOff   []uint32           // CSR successor offsets (a's array)
	edges     []automata.StateID // CSR successor lists (a's array)
	code      []int32            // per-state report code (a's array)
	isCounter []bool
	isReport  []bool

	startIdx    *[256][]automata.StateID // all-input starts matching each byte
	allStarts   []automata.StateID       // used instead when NoStartIndex
	startOfData []automata.StateID
}

// tablesKey caches the production (indexed) tables on each automaton.
var tablesKey = automata.NewCacheKey("sim")

// compile builds a's tables. noStartIndex lists every all-input start in
// allStarts instead of indexing them by byte.
func compile(a *automata.Automaton, noStartIndex bool) tables {
	n := a.NumStates()
	t := tables{
		sets:      a.Table().Sets(),
		css:       a.ClassHandles(),
		code:      a.ReportCodes(),
		isCounter: make([]bool, n),
		isReport:  make([]bool, n),
		startIdx:  new([256][]automata.StateID),
	}
	t.edgeOff, t.edges = a.CSR()
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		t.isReport[id] = a.IsReport(id)
		t.isCounter[id] = a.Kind(id) == automata.KindCounter
	}
	for _, s := range a.Starts() {
		switch a.Start(s) {
		case automata.StartAllInput:
			if noStartIndex {
				t.allStarts = append(t.allStarts, s)
				continue
			}
			cls := t.sets[t.css[s]]
			for c := 0; c < 256; c++ {
				if cls.Contains(byte(c)) {
					t.startIdx[c] = append(t.startIdx[c], s)
				}
			}
		case automata.StartOfData:
			t.startOfData = append(t.startOfData, s)
		}
	}
	return t
}

// compileIndexed is compile for the production configuration, in the
// shape automata.Compiled takes.
func compileIndexed(a *automata.Automaton) *tables {
	t := compile(a, false)
	return &t
}

// New returns an engine for a. The automaton's tables are compiled on the
// first call for a and shared by every later engine on it, so New is
// otherwise a scratch allocation.
func New(a *automata.Automaton) *Engine {
	return NewWithOptions(a, Options{})
}

// NewWithOptions is New with explicit strategy options. The NoStartIndex
// ablation compiles private tables, bypassing the shared cache.
func NewWithOptions(a *automata.Automaton, opts Options) *Engine {
	n := a.NumStates()
	e := &Engine{
		a:          a,
		mark:       make([]uint32, n),
		amark:      make([]uint32, n),
		counterVal: map[automata.StateID]uint32{},
		latched:    map[automata.StateID]bool{},
	}
	if opts.NoStartIndex {
		e.tables = compile(a, true)
	} else {
		e.tables = *automata.Compiled(a, tablesKey, compileIndexed)
	}
	if a.NumCounters() > 0 {
		e.pulseMark = make([]bool, n)
	}
	e.Reset()
	return e
}

// Automaton returns the automaton the engine executes.
func (e *Engine) Automaton() *automata.Automaton { return e.a }

// EnableProfile attaches (creating on first call) a per-state activity
// profile and returns it. The profile accumulates across Resets; call its
// Reset to zero it.
func (e *Engine) EnableProfile() *telemetry.StateProfile {
	if e.prof == nil {
		e.prof = telemetry.NewStateProfile(e.a.NumStates())
	}
	e.syncTelemetryOn()
	return e.prof
}

// Profile returns the attached per-state profile, or nil.
func (e *Engine) Profile() *telemetry.StateProfile { return e.prof }

// SetOnReport sets the OnReport callback (nil detaches) — the method form
// required by the segment scanner's engine interface, identical to
// assigning the OnReport field.
func (e *Engine) SetOnReport(fn func(Report)) { e.OnReport = fn }

// FrontierLen returns the current enabled-frontier size (the states armed
// for the next Step), without the copy FrontierSnapshot makes.
func (e *Engine) FrontierLen() int { return len(e.frontier) }

// SetTracer attaches an event tracer (nil detaches). The tracer receives
// OnSymbol/OnActivate/OnReport callbacks from inside the scan loop.
func (e *Engine) SetTracer(t telemetry.Tracer) {
	e.tracer = t
	e.syncTelemetryOn()
}

func (e *Engine) syncTelemetryOn() {
	e.telemetryOn = e.prof != nil || e.tracer != nil || e.frontierHist != nil
}

// SetSpans attaches a phase-span collector (nil detaches): every Run call
// is timed as a "sim.run" span, aggregated across calls (segmented
// workloads produce one span node with Count == segments, not one node
// per segment).
func (e *Engine) SetSpans(s *telemetry.Spans) { e.spans = s }

// SetGovernor attaches a run governor (nil detaches). Budgets are
// enforced only by RunChecked; bare Run/Step calls stay ungoverned.
func (e *Engine) SetGovernor(g *guard.Governor) { e.gov = g }

// SetProgress attaches a live-progress tracker (nil detaches): RunChecked
// heartbeats bytes scanned and the enabled-frontier size at every chunk
// boundary. Bare Run calls stay silent, like the governor.
func (e *Engine) SetProgress(t *telemetry.ProgressTracker) { e.prog = t }

// SetRecorder attaches a flight recorder (nil detaches): RunChecked logs
// chunk budget checks and budget trips for postmortem dumps.
func (e *Engine) SetRecorder(r *telemetry.FlightRecorder) { e.rec = r }

// SetCheckpointer attaches a durable-checkpoint hook (nil detaches):
// RunChecked offers it the stream after every chunk. Bare Run calls skip
// it, like the governor.
func (e *Engine) SetCheckpointer(c Checkpointer) { e.ckpt = c }

// FlushTelemetry publishes statistics and ledger bytes accumulated since
// the last flush to the attached registry and ledger. RunChecked flushes
// on its own at run end; the checkpoint saver calls this mid-stream so a
// snapshot of the registry/collector reflects every byte scanned so far.
func (e *Engine) FlushTelemetry() {
	if e.reg != nil {
		e.flushStats()
	}
	if e.led != nil {
		e.flushLedger()
	}
}

// SetLedger attaches a cost-attribution ledger (nil detaches). The
// ledger accumulates per-component frontier work, reports, and scanned
// bytes from this point of the stream onward — bytes consumed before the
// attach (e.g. a segment-scan warmup) are not charged. The engine never
// commits the ledger; the caller folds it into its collector when the
// scan unit completes.
func (e *Engine) SetLedger(l *attr.Ledger) {
	e.led = l
	e.ledMark = e.stats.Symbols
}

// flushLedger charges bytes scanned since the last flush to every
// component this engine covers.
func (e *Engine) flushLedger() {
	if d := e.stats.Symbols - e.ledMark; d > 0 {
		e.led.AddBytesAll(d)
	}
	e.ledMark = e.stats.Symbols
}

// SetRegistry attaches a metrics registry (nil detaches). Aggregate run
// statistics are flushed to the sim.* counters at the end of every Run
// (and on Reset), and the per-symbol enabled-frontier size is observed
// into the sim.frontier histogram.
func (e *Engine) SetRegistry(r *telemetry.Registry) {
	e.reg = r
	if r == nil {
		e.frontierHist = nil
		e.syncTelemetryOn()
		return
	}
	e.frontierHist = r.Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	e.published = e.stats
	e.syncTelemetryOn()
}

// flushStats publishes stats accumulated since the last flush to the
// attached registry.
func (e *Engine) flushStats() {
	d := e.reg
	if d == nil {
		return
	}
	delta := Stats{
		Symbols:       e.stats.Symbols - e.published.Symbols,
		Enabled:       e.stats.Enabled - e.published.Enabled,
		Active:        e.stats.Active - e.published.Active,
		CounterPulses: e.stats.CounterPulses - e.published.CounterPulses,
		Reports:       e.stats.Reports - e.published.Reports,
	}
	d.Counter("sim.symbols").Add(delta.Symbols)
	d.Counter("sim.enabled").Add(delta.Enabled)
	d.Counter("sim.active").Add(delta.Active)
	d.Counter("sim.counter_pulses").Add(delta.CounterPulses)
	d.Counter("sim.reports").Add(delta.Reports)
	e.published = e.stats
}

// Reset clears all runtime state: the frontier, counters, latches, offset,
// statistics, and any collected reports. The next symbol consumed is
// treated as the start of data.
func (e *Engine) Reset() {
	if e.reg != nil {
		e.flushStats() // don't lose stats accumulated via bare Step calls
	}
	if e.led != nil {
		e.flushLedger()
	}
	e.frontier = e.frontier[:0]
	e.next = e.next[:0]
	// One bump suffices for EnableState's mark[id] == gen-1 dedupe to stay
	// sound: marks are only ever written with the in-Step generation (or
	// gen-1 by EnableState itself), and Step bumps gen after writing, so
	// every stale mark is <= gen-2 here — a state enabled in the final
	// cycle of the previous run CAN be re-armed immediately after Reset
	// (pinned by TestEnableStateAfterReset).
	e.gen++
	if e.gen < 2 { // wrapped (or first use): clear marks, keep gen >= 2
		for i := range e.mark {
			e.mark[i] = 0
			e.amark[i] = 0
		}
		e.gen = 2
	}
	clear(e.counterVal)
	for _, id := range e.pulsed {
		e.pulseMark[id] = false
	}
	e.pulsed = e.pulsed[:0]
	clear(e.latched)
	e.offset = 0
	e.stats = Stats{}
	e.published = Stats{}
	e.ledMark = 0
	e.reports = e.reports[:0]
}

// Stats returns the statistics accumulated since the last Reset.
func (e *Engine) Stats() Stats { return e.stats }

// Reports returns the reports collected since the last Reset (only
// populated when CollectReports is set).
func (e *Engine) Reports() []Report { return e.reports }

// Run consumes the entire input and returns the accumulated statistics.
// It may be called repeatedly to continue the same logical stream.
func (e *Engine) Run(input []byte) Stats {
	sp := e.spans.Start("sim.run")
	for _, b := range input {
		e.Step(b)
	}
	if e.reg != nil {
		e.flushStats()
	}
	if e.led != nil {
		e.flushLedger()
	}
	sp.End()
	return e.stats
}

// govChunk is the governed input granularity: budgets and cancellation
// are observed every govChunk symbols — cheap enough to be invisible,
// fine enough that a tripped run overruns its budget by at most one
// chunk.
const govChunk = 4096

// RunChecked is Run under the attached governor: the input is consumed
// in govChunk-sized chunks with a guard boundary (fault injection,
// deadline/cancellation, input-byte accounting) before each chunk and an
// active-set check after it. On a budget trip the run stops between
// chunks and the partial statistics are returned with the *guard.TripError.
// The same chunk boundaries feed the attached progress tracker and flight
// recorder. With no governor, progress, or recorder attached it is
// exactly Run.
func (e *Engine) RunChecked(input []byte) (Stats, error) {
	if e.gov == nil && e.prog == nil && e.rec == nil && e.ckpt == nil {
		return e.Run(input), nil
	}
	sp := e.spans.Start("sim.run")
	var err error
	for off := 0; off < len(input); off += govChunk {
		end := off + govChunk
		if end > len(input) {
			end = len(input)
		}
		n := int64(end - off)
		if e.rec != nil {
			e.rec.Record(telemetry.RecBudget, 0, guard.SiteSimChunk, n)
		}
		if err = e.gov.Boundary(guard.SiteSimChunk, n); err != nil {
			break
		}
		for _, b := range input[off:end] {
			e.Step(b)
		}
		if e.prog != nil {
			e.prog.Beat(n, int64(len(e.frontier)))
		}
		if e.led != nil {
			e.flushLedger()
		}
		if e.ckpt != nil {
			if err = e.ckpt.Boundary(n); err != nil {
				break
			}
		}
		if err = e.gov.CheckActive(int64(len(e.frontier))); err != nil {
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
	sp.End()
	return e.stats, err
}

func (e *Engine) emit(id automata.StateID) {
	e.stats.Reports++
	if e.CodeCounts != nil {
		e.CodeCounts[e.code[id]]++
	}
	if e.led != nil {
		e.led.Report(e.code[id])
	}
	r := Report{Offset: e.offset, State: id, Code: e.code[id]}
	if e.tracer != nil {
		e.tracer.OnReport(e.offset, id, e.code[id])
	}
	if e.OnReport != nil {
		e.OnReport(r)
	}
	if e.CollectReports && (e.MaxReports == 0 || len(e.reports) < e.MaxReports) {
		e.reports = append(e.reports, r)
	}
}

// enable puts id on the next-symbol frontier (deduplicated).
func (e *Engine) enable(id automata.StateID) {
	if e.mark[id] != e.gen {
		e.mark[id] = e.gen
		e.next = append(e.next, id)
	}
}

// activate processes a state that matched the current symbol. Activation is
// idempotent within a cycle.
func (e *Engine) activate(id automata.StateID) {
	if e.amark[id] == e.gen {
		return
	}
	e.amark[id] = e.gen
	e.stats.Active++
	if e.telemetryOn {
		e.activateTelemetry(id)
	}
	if e.led != nil {
		e.led.Activate(id)
	}
	if e.isReport[id] {
		e.emit(id)
	}
	for _, t := range e.edges[e.edgeOff[id]:e.edgeOff[id+1]] {
		if e.isCounter[t] {
			e.pulse(t)
		} else {
			e.enable(t)
		}
	}
}

// stepTelemetry runs the per-symbol hooks; called only when telemetryOn.
// Kept out of Step so the disabled hot loop carries a single branch.
func (e *Engine) stepTelemetry(b byte) {
	if e.tracer != nil {
		e.tracer.OnSymbol(e.offset, b)
	}
	if e.frontierHist != nil {
		e.frontierHist.Observe(int64(len(e.frontier)))
	}
	if e.prof != nil {
		for _, s := range e.frontier {
			e.prof.Enables[s]++
		}
	}
}

// activateTelemetry runs the per-activation hooks; called only when
// telemetryOn.
func (e *Engine) activateTelemetry(id automata.StateID) {
	if e.prof != nil {
		e.prof.Activations[id]++
	}
	if e.tracer != nil {
		e.tracer.OnActivate(e.offset, id)
	}
}

// pulse delivers a count-enable to a counter (at most one increment per
// counter per cycle, per the AP model).
func (e *Engine) pulse(id automata.StateID) {
	if e.pulseMark[id] {
		return
	}
	e.pulseMark[id] = true
	e.pulsed = append(e.pulsed, id)
	e.stats.CounterPulses++
}

// fireCounters resolves end-of-cycle counter increments.
//
// Semantics (pinned by TestChainedCounter* and the difftest oracle): a
// counter's count-enable input is a single wire, so it receives at most one
// increment per cycle — STE pulses and same-cycle chained fires from other
// counters all coalesce into that one increment. Resolution seeds from the
// pulsed set in ascending element-ID order and cascades FIFO: a counter
// reaching its target fires (reports, enables STE successors for the next
// symbol) and delivers a same-cycle count-enable to its counter successors,
// which obey the one-increment rule, the latch, and their own thresholds.
// The coalescing rule makes the outcome independent of resolution order
// (and bounds the cascade: each counter is processed at most once per
// cycle); the sorted seed makes the report sequence canonical.
//
// The previous implementation iterated a Go map — counter-to-counter
// chains resolved in randomized map order, so multi-counter automata
// reported nondeterministically run-to-run — and applied chained
// increments as a raw counterVal[t]++, bypassing the latch and the target
// comparison of the chained-into counter.
func (e *Engine) fireCounters() {
	if len(e.pulsed) == 0 {
		return
	}
	queue := e.pulsed
	slices.Sort(queue)
	for i := 0; i < len(queue); i++ {
		id := queue[i]
		if e.latched[id] {
			continue // a latched counter ignores count-enables until Reset
		}
		cfg, _ := e.a.CounterConfig(id)
		v := e.counterVal[id] + 1
		if v < cfg.Target {
			e.counterVal[id] = v
			continue
		}
		// Fire.
		if e.isReport[id] {
			e.emit(id)
		}
		for _, t := range e.edges[e.edgeOff[id]:e.edgeOff[id+1]] {
			if e.isCounter[t] {
				if !e.pulseMark[t] {
					e.pulseMark[t] = true
					e.stats.CounterPulses++
					queue = append(queue, t)
				}
			} else {
				e.enable(t)
			}
		}
		if cfg.Mode == automata.CountRollover {
			e.counterVal[id] = 0
		} else {
			e.latched[id] = true
			e.counterVal[id] = cfg.Target
		}
	}
	for _, id := range queue {
		e.pulseMark[id] = false
	}
	e.pulsed = queue[:0]
}

// Step consumes one input symbol.
func (e *Engine) Step(b byte) {
	e.stats.Symbols++
	if e.telemetryOn {
		e.stepTelemetry(b)
	}
	// Start-of-data states participate only on the first symbol; they are
	// part of the enabled frontier conceptually.
	if e.offset == 0 {
		for _, s := range e.startOfData {
			e.stats.Enabled++
			if e.sets[e.css[s]].Contains(b) {
				e.activate(s)
			}
		}
	}
	// All-input starts, via the byte index: only matching ones are touched.
	for _, s := range e.startIdx[b] {
		e.activate(s)
	}
	// Ablation path (NoStartIndex): test every all-input start per symbol.
	for _, s := range e.allStarts {
		e.stats.Enabled++
		if e.sets[e.css[s]].Contains(b) {
			e.activate(s)
		}
	}
	// Previously-enabled states.
	e.stats.Enabled += int64(len(e.frontier))
	for _, s := range e.frontier {
		if e.sets[e.css[s]].Contains(b) {
			e.activate(s)
		}
	}
	e.fireCounters()
	// Swap frontiers and advance the generation so next-cycle enables
	// re-mark from scratch.
	e.frontier, e.next = e.next, e.frontier[:0]
	e.gen++
	if e.gen < 2 { // wrapped: clear marks, keep gen >= 2 for EnableState
		for i := range e.mark {
			e.mark[i] = 0
			e.amark[i] = 0
		}
		e.gen = 2
		// Re-mark the live frontier: its states were marked with the
		// pre-wrap generation, and EnableState dedupes against mark[id] ==
		// gen-1. Without this, re-arming a state already on the frontier
		// right after a wrap appends a duplicate (double-counted in
		// Enabled); see TestEnableStateDedupeAcrossGenerationWrap.
		for _, s := range e.frontier {
			e.mark[s] = e.gen - 1
		}
	}
	e.offset++
}

// EnableState places id on the frontier for the NEXT Step call, as if an
// active predecessor had enabled it. This is the hook context-sensitive
// rule engines use to arm a secondary automaton when a trigger pattern
// reports (the paper's §XI future-work direction). Call it between Step
// calls (or from OnReport of another engine); duplicates are coalesced.
func (e *Engine) EnableState(id automata.StateID) {
	// The upcoming frontier was marked with the previous generation (it
	// was built as "next" during the last Step). gen is kept >= 2, so
	// gen-1 never collides with the cleared-mark value 0.
	prev := e.gen - 1
	if e.mark[id] == prev {
		return
	}
	e.mark[id] = prev
	e.frontier = append(e.frontier, id)
}

// CounterSnapshot is one counter's runtime value inside a StreamState.
type CounterSnapshot struct {
	ID      automata.StateID
	Value   uint32
	Latched bool
}

// StreamState is a portable snapshot of an engine's mid-stream
// continuation point: the absolute input offset of the next symbol, the
// enabled frontier for that symbol (sorted, excluding all-input start
// states — those re-arm from the byte index every symbol and carry no
// stream state), and the live counter values/latches. Two engines at the
// same StreamState produce identical reports and identical per-symbol
// statistics on the same remaining input; this is the handoff contract
// the segment-parallel scanner (internal/segment) stitches on.
type StreamState struct {
	Offset   int64
	Frontier []automata.StateID
	Counters []CounterSnapshot
}

// FrontierSnapshot returns a sorted copy of the frontier enabled for the
// next symbol. The frontier list is deduplicated (see EnableState), so
// the snapshot is a canonical set representation: two engines at the same
// stream position return equal snapshots regardless of the order their
// frontiers were built in.
func (e *Engine) FrontierSnapshot() []automata.StateID {
	f := append([]automata.StateID(nil), e.frontier...)
	slices.Sort(f)
	return f
}

// CaptureState snapshots the engine's continuation state between Step
// calls. The snapshot shares nothing with the engine and stays valid
// across Reset/RestoreState.
func (e *Engine) CaptureState() *StreamState {
	s := &StreamState{Offset: e.offset, Frontier: e.FrontierSnapshot()}
	for id, v := range e.counterVal {
		s.Counters = append(s.Counters, CounterSnapshot{ID: id, Value: v, Latched: e.latched[id]})
	}
	slices.SortFunc(s.Counters, func(a, b CounterSnapshot) int { return int(a.ID) - int(b.ID) })
	return s
}

// RestoreState resets the engine and re-seeds it to continue the logical
// stream at s: the frontier is re-armed, counter values and latches are
// reinstated, and the next Step consumes the symbol at s.Offset (reports
// carry absolute offsets; start-of-data states fire only when s.Offset is
// 0). Per-stream accounting restarts: Stats and collected reports cover
// only the work after the restore, exactly like Reset — callers stitching
// a stream from several engines sum the per-piece stats themselves.
func (e *Engine) RestoreState(s *StreamState) {
	e.Reset()
	for _, id := range s.Frontier {
		e.EnableState(id)
	}
	for _, c := range s.Counters {
		e.counterVal[c.ID] = c.Value
		if c.Latched {
			e.latched[c.ID] = true
		}
	}
	e.offset = s.Offset
}

// SetOffset positions the engine at an absolute stream offset without
// touching any other state — the segment-parallel scanner uses it to give
// a speculative engine correct report offsets (and correct start-of-data
// suppression: only offset 0 arms StartOfData states) before it scans a
// mid-stream slice. Call it between Step calls.
func (e *Engine) SetOffset(off int64) { e.offset = off }

// CountReports runs the engine over input without collecting report
// structures and returns only the number of reports. The engine is Reset
// first.
func (e *Engine) CountReports(input []byte) int64 {
	e.Reset()
	collect := e.CollectReports
	e.CollectReports = false
	e.Run(input)
	e.CollectReports = collect
	return e.stats.Reports
}
