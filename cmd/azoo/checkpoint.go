package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/core"
	"automatazoo/internal/dfa"
	"automatazoo/internal/guard"
	"automatazoo/internal/report"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/stats"
)

// ckptFlags is the crash-safety flag pair on azoo run: -checkpoint arms
// durable periodic checkpoints, -checkpoint-interval paces them.
type ckptFlags struct {
	path     *string
	interval *int64
}

func checkpointFlags(fs *flag.FlagSet) *ckptFlags {
	return &ckptFlags{
		path: fs.String("checkpoint", "",
			"write crash-safe scan checkpoints to this file; resume an interrupted run with `azoo resume <file>` (scans on one whole-automaton engine; -j sizes the segment worker pool)"),
		interval: fs.Int64("checkpoint-interval", ckpt.DefaultInterval,
			"input bytes scanned between periodic checkpoints (aligned down to a 4096-byte multiple)"),
	}
}

func (cf *ckptFlags) armed() bool { return cf != nil && *cf.path != "" }

// saver builds the run's checkpoint saver from the session's hooks.
func (cf *ckptFlags) saver(sess *obsSession) *ckpt.Saver {
	return &ckpt.Saver{
		Path:     *cf.path,
		Interval: ckpt.AlignInterval(*cf.interval),
		Gov:      sess.governor(),
		Registry: sess.registry(),
		Recorder: sess.recorder(),
	}
}

// ckptMeta records everything `azoo resume` needs to rebuild the run:
// the suite flags regenerate the automaton and streams bit-for-bit, the
// execution knobs reproduce the scan shape (and so the save grid).
func ckptMeta(command string, b core.Benchmark, engine string, scale float64, input int, seed uint64, workers, segments int, interval int64) ckpt.Meta {
	return ckpt.Meta{
		Command: command,
		Label:   b.Name,
		Engine:  engine,
		Flags: map[string]string{
			"bench": b.Name,
			"scale": fmt.Sprintf("%g", scale),
			"input": fmt.Sprintf("%d", input),
			"seed":  fmt.Sprintf("%#x", seed),
		},
		Interval: ckpt.AlignInterval(interval),
		Workers:  workers,
		Segments: segments,
	}
}

// ckptEngine builds the whole-automaton scan engine for a checkpointed
// run: sim.New by default, or the -engine factory (prefilter), asserted
// to the checkpointable contract.
func ckptEngine(a *automata.Automaton, factory func(*automata.Automaton) (segment.Engine, error)) (ckpt.Engine, error) {
	if factory == nil {
		return sim.New(a), nil
	}
	se, err := factory(a)
	if err != nil {
		return nil, err
	}
	ce, ok := se.(ckpt.Engine)
	if !ok {
		return nil, fmt.Errorf("engine %T cannot checkpoint", se)
	}
	return ce, nil
}

// saveFinalOnTrip persists a last checkpoint when a scan stopped on a
// governor trip (budget, signal, injected fault): the on-disk state then
// resumes from the drain point instead of the last periodic save.
func saveFinalOnTrip(sv *ckpt.Saver, err error) {
	trip := guard.AsTrip(err)
	if trip == nil || sv == nil {
		return
	}
	reason := "trip"
	if trip.Budget == guard.BudgetSignaled {
		reason = "signal"
	}
	sv.SaveFinal(reason)
}

// runCheckpointedScan is the nfa/prefilter scan path under -checkpoint:
// one whole-automaton engine driven by ckpt.Scan, with the session's
// hooks attached and the saver riding the engine's Checkpointer seam (or
// the between-chunks saves of the segment-parallel shape).
func runCheckpointedScan(sess *obsSession, sv *ckpt.Saver, meta ckpt.Meta, a *automata.Automaton, segs [][]byte, h stats.Hooks, workers, segments int, start *ckpt.Checkpoint) (stats.Dynamic, segment.Stitch, error) {
	eng, err := ckptEngine(a, h.NewEngine)
	if err != nil {
		return stats.Dynamic{}, segment.Stitch{}, err
	}
	eng.SetRegistry(h.Registry)
	eng.SetTracer(h.Tracer)
	eng.SetGovernor(h.Governor)
	eng.SetProgress(h.Progress)
	eng.SetRecorder(h.Recorder)
	cfg := ckpt.ScanConfig{
		Automaton:   a,
		Engine:      eng,
		Streams:     segs,
		Saver:       sv,
		Meta:        meta,
		Segments:    segments,
		Workers:     workers,
		Governor:    h.Governor,
		Registry:    h.Registry,
		Tracer:      h.Tracer,
		Progress:    h.Progress,
		Recorder:    h.Recorder,
		Attribution: h.Attribution,
		NewEngine:   h.NewEngine,
	}
	if start != nil {
		cfg.StartStream = start.Cursor.Stream
		cfg.StartOffset = start.Cursor.Offset
		if start.Cursor.Sim != nil {
			cfg.Cum = *start.Cursor.Sim
		}
		if start.Cursor.Stitch != nil {
			cfg.CumStitch = *start.Cursor.Stitch
		}
		if start.Sim != nil && start.Cursor.Offset > 0 {
			eng.RestoreState(start.Sim)
		}
	}
	if h.Progress != nil {
		var total int64
		for _, seg := range segs {
			total += int64(len(seg))
		}
		h.Progress.AddTotal(total - cfg.StartOffset)
	}
	res, err := ckpt.Scan(context.Background(), cfg)
	if err != nil {
		saveFinalOnTrip(sv, err)
	}
	st := res.Stats
	dyn := stats.Dynamic{Symbols: st.Symbols, Reports: st.Reports}
	if st.Symbols > 0 {
		dyn.ActiveSet = float64(st.Active) / float64(st.Symbols)
		dyn.EnabledSet = float64(st.Enabled) / float64(st.Symbols)
		dyn.ReportRate = float64(st.Reports) / float64(st.Symbols)
	}
	return dyn, res.Stitch, err
}

// runCheckpointedDFA is the dfa scan path under -checkpoint (requires
// -j 1; the checkpoint holds one engine's frontier). Reports and symbols
// resume exactly; the transition cache restarts cold, so printed cache
// statistics describe the resumed process (see ARCHITECTURE.md).
func runCheckpointedDFA(sess *obsSession, sv *ckpt.Saver, meta ckpt.Meta, a *automata.Automaton, segs [][]byte, col *attr.Collector, start *ckpt.Checkpoint) (symbols, reports int64, st dfa.Stats, err error) {
	e, err := dfa.New(a)
	if err != nil {
		return 0, 0, dfa.Stats{}, err
	}
	pt := sess.tracker(meta.Label)
	e.SetRegistry(sess.registry())
	e.SetTracer(sess.ndjson())
	e.SetSpans(sess.spanSet())
	e.SetGovernor(sess.governor())
	e.SetProgress(pt)
	e.SetRecorder(sess.recorder())
	var led *attr.Ledger
	if col != nil {
		led = col.Ledger(col.GlobalCompOf())
		e.SetLedger(led)
		defer led.Commit()
	}
	cfg := ckpt.DFAScanConfig{
		Engine:      e,
		Streams:     segs,
		Saver:       sv,
		Meta:        meta,
		Governor:    sess.governor(),
		Registry:    sess.registry(),
		Attribution: col,
		Ledger:      led,
	}
	if start != nil {
		cfg.StartStream = start.Cursor.Stream
		cfg.StartOffset = start.Cursor.Offset
		if start.Cursor.DFA != nil {
			cfg.Cum = *start.Cursor.DFA
		}
		if start.DFA != nil && start.Cursor.Offset > 0 {
			if rerr := e.RestoreState(start.DFA); rerr != nil {
				return 0, 0, dfa.Stats{}, rerr
			}
		}
	}
	for _, seg := range segs {
		pt.AddTotal(int64(len(seg)))
	}
	cum, err := ckpt.ScanDFA(context.Background(), cfg)
	pt.Done()
	if err != nil {
		saveFinalOnTrip(sv, err)
	}
	return cum.Symbols, cum.Reports, cum, err
}

// printRunNFA writes run's stdout line for the nfa/prefilter engines —
// shared with resume so an interrupted-and-resumed run's output is
// byte-identical to an uninterrupted one.
func printRunNFA(name string, states int, dyn stats.Dynamic) {
	fmt.Printf("%s: %d states, %d symbols, %d reports (%.6f/sym), active set %.2f\n",
		name, states, dyn.Symbols, dyn.Reports, dyn.ReportRate, dyn.ActiveSet)
}

// printRunDFA writes run's stdout lines for the dfa engine.
func printRunDFA(name string, states int, symbols, reports int64, st dfa.Stats) {
	fmt.Printf("%s: %d states, %d symbols, %d reports, %d DFA states, %d fallbacks\n",
		name, states, symbols, reports, st.DFAStates, st.Fallbacks)
	fmt.Printf("transition cache: %.2f%% hit rate, %.4f evictions/lookup\n",
		st.HitRate()*100, st.EvictionRate())
}

// cmdResume restores an interrupted `azoo run -checkpoint` from its
// durable checkpoint and scans the remainder. The benchmark, engine, and
// scan shape are rebuilt from the checkpoint's metadata; only telemetry
// and governor flags are accepted here (artifact paths belong to this
// invocation, not the original's). With the crash landing on the
// checkpoint grid (a kill at a save point), stdout, -report manifests,
// and attribution output are byte-identical to an uninterrupted run for
// the nfa and prefilter engines; the dfa engine resumes its reports and
// symbols exactly but re-warms its transition cache from cold.
func cmdResume(args []string) error {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageErrorf("usage: azoo resume [flags] <checkpoint-file>")
	}
	path := fs.Arg(0)
	c, src, err := ckpt.Load(path)
	if err != nil {
		return err
	}
	if src != path {
		fmt.Fprintf(os.Stderr, "azoo: checkpoint %s unreadable; resuming from previous generation %s\n", path, src)
	}
	m := c.Meta
	b, err := resolveBenchmark(m.Flags["bench"])
	if err != nil {
		return fmt.Errorf("checkpoint benchmark: %w", err)
	}
	scale, err := strconv.ParseFloat(m.Flags["scale"], 64)
	if err != nil {
		return fmt.Errorf("checkpoint scale: %w", err)
	}
	input, err := strconv.Atoi(m.Flags["input"])
	if err != nil {
		return fmt.Errorf("checkpoint input: %w", err)
	}
	seed, err := strconv.ParseUint(m.Flags["seed"], 0, 64)
	if err != nil {
		return fmt.Errorf("checkpoint seed: %w", err)
	}
	// The run's size flags come from the checkpoint; hold them to the
	// same rule parseFlags applies on the command line.
	for _, f := range []struct {
		name string
		v    float64
	}{{"scale", scale}, {"input", float64(input)}, {"j", float64(m.Workers)}, {"segments", float64(m.Segments)}} {
		if f.v < 0 {
			return usageErrorf("resume: checkpoint records -%s %v; it must not be negative", f.name, f.v)
		}
	}
	sess, err := tf.session()
	if err != nil {
		return err
	}
	if err := armGovernor(sess, gf); err != nil {
		return err
	}
	// No explicit budgets on the resume command line: the original run's
	// unconsumed budget remainder (persisted at the save) carries over.
	if sess.governor() == nil && c.Budget != nil {
		sess.setGovernor(guard.New(context.Background(), *c.Budget))
	}
	sess.armSignals(true)

	cfg := core.Config{Scale: scale, InputBytes: input, Seed: seed}
	bsp := sess.spanSet().Start("build")
	var a *automata.Automaton
	var segs [][]byte
	var col *attr.Collector
	if sess.registry() != nil {
		a, segs, col, err = b.BuildAttributed(cfg)
	} else {
		a, segs, err = b.Build(cfg)
	}
	bsp.End()
	if err != nil {
		return err
	}
	if c.Cursor.Stream < 0 || c.Cursor.Stream >= len(segs) {
		return fmt.Errorf("checkpoint cursor: stream %d of %d", c.Cursor.Stream, len(segs))
	}
	if off := c.Cursor.Offset; off < 0 || off > int64(len(segs[c.Cursor.Stream])) {
		return fmt.Errorf("checkpoint cursor: offset %d beyond stream of %d bytes", off, len(segs[c.Cursor.Stream]))
	}
	// Restore the run's accumulated observability so the final artifacts
	// equal an uninterrupted run's: registry counters merge from the
	// snapshot, attribution totals replace the fresh collector's zeros.
	if sess.registry() != nil && c.Metrics != nil {
		sess.registry().Merge(*c.Metrics)
	}
	if col != nil && c.Attr != nil {
		if err := col.RestoreTotals(*c.Attr); err != nil {
			return err
		}
	}

	row := report.KernelRow{Name: b.Name, States: a.NumStates()}
	ssp := sess.spanSet().Start("scan")
	runConfig := suiteConfig(scale, input, seed)
	runConfig["segments"] = fmt.Sprintf("%d", m.Segments)
	sv := &ckpt.Saver{
		Path:     path,
		Interval: m.Interval,
		Gov:      sess.governor(),
		Registry: sess.registry(),
		Recorder: sess.recorder(),
	}
	switch m.Engine {
	case "nfa", "prefilter":
		h := stats.Hooks{
			Registry: sess.registry(), Tracer: sess.ndjson(), Governor: sess.governor(),
			Progress: sess.tracker(b.Name), Recorder: sess.recorder(),
			Attribution: col,
		}
		var pfExtra func(*report.KernelRow)
		if m.Engine == "prefilter" {
			h.NewEngine = prefilterEngine
			if pfExtra, err = prefilterExtras(a, sess.registry()); err != nil {
				return err
			}
		}
		dyn, stitch, err := runCheckpointedScan(sess, sv, m, a, segs, h, m.Workers, m.Segments, c)
		h.Progress.Done()
		ssp.End()
		if err != nil {
			row.Symbols, row.Reports = dyn.Symbols, dyn.Reports
			addStitchExtra(&row, stitch)
			if pfExtra != nil {
				pfExtra(&row)
			}
			sess.recordAttribution(col)
			sess.setReport(m.Command, m.Workers, runConfig, []report.KernelRow{row})
			return sess.closeTruncated(err)
		}
		row.Symbols, row.Reports = dyn.Symbols, dyn.Reports
		row.Extra = map[string]float64{"active_set": dyn.ActiveSet, "report_rate": dyn.ReportRate}
		addStitchExtra(&row, stitch)
		if pfExtra != nil {
			pfExtra(&row)
		}
		printRunNFA(b.Name, a.NumStates(), dyn)
	case "dfa":
		symbols, reports, st, err := runCheckpointedDFA(sess, sv, m, a, segs, col, c)
		ssp.End()
		row.Symbols, row.Reports = symbols, reports
		if err != nil {
			sess.recordAttribution(col)
			sess.setReport(m.Command, m.Workers, runConfig, []report.KernelRow{row})
			return sess.closeTruncated(err)
		}
		row.HasCache, row.CacheHitRate, row.CacheEvictRate = true, st.HitRate(), st.EvictionRate()
		printRunDFA(b.Name, a.NumStates(), symbols, reports, st)
	default:
		return fmt.Errorf("checkpoint engine %q unknown to this build", m.Engine)
	}
	sess.recordAttribution(col)
	sess.setReport(m.Command, m.Workers, runConfig, []report.KernelRow{row})
	return sess.Close()
}
