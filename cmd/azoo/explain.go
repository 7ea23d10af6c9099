package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"automatazoo/internal/attr"
	"automatazoo/internal/core"
	"automatazoo/internal/stats"
)

// cmdExplain runs one benchmark's standard input under cost attribution
// and prints the per-pattern cost plan: which source patterns (regex
// rules, MNRL networks, benchmark components) are responsible for the
// run's bytes, frontier work, cache pressure, and reports. Every number
// is a deterministic engine-event total folded through the compile-time
// provenance map, so the output is byte-identical at any -j or -segments
// value (asserted by TestExplainByteIdenticalAcrossWorkersAndSegments).
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	scale, input, seed := suiteFlags(fs)
	name := fs.String("bench", "", "benchmark name (or pass it as the first argument)")
	engine := fs.String("engine", "nfa", "engine: nfa (VASim-like), dfa (Hyperscan-like), or prefilter (two-stage literal prefilter)")
	workers := workersFlag(fs)
	segments := segmentsFlag(fs)
	topK := fs.Int("top", 10, "cost rows to print (0 = every pattern)")
	asJSON := fs.Bool("json", false, "emit the cost rows as JSON instead of the text table")
	// Accept `azoo explain <benchmark>` with the name before the flags.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		*name = args[0]
		args = args[1:]
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *name == "" {
		return usageErrorf("explain: benchmark name required (azoo explain <benchmark>)")
	}
	b, err := resolveBenchmark(*name)
	if err != nil {
		return err
	}
	cfg := core.Config{Scale: *scale, InputBytes: *input, Seed: *seed}
	col, err := explainRun(b, cfg, *engine, *workers, *segments)
	if err != nil {
		return err
	}
	return writeExplain(os.Stdout, b.Name, *engine, col, *topK, *asJSON)
}

// explainRun builds the benchmark with its provenance map and scans its
// standard input on the requested engine with a cost ledger attached,
// returning the filled collector. The execution paths mirror `azoo run`
// exactly (single-engine, component-partitioned, and segment-parallel),
// so the committed totals are the same ones a production run would
// attribute.
func explainRun(b core.Benchmark, cfg core.Config, engine string, workers, segments int) (*attr.Collector, error) {
	a, segs, col, err := b.BuildAttributed(cfg)
	if err != nil {
		return nil, err
	}
	switch engine {
	case "nfa", "prefilter":
		h := stats.Hooks{Attribution: col}
		if engine == "prefilter" {
			// Same scan paths, prefilter engines behind the factory. Anchored
			// components charge bytes at flush points and one work unit per
			// matched literal byte (the chain work the nfa engine would have
			// done); residual components attribute exactly as under nfa.
			h.NewEngine = prefilterEngine
		}
		if workers == 1 || anySegmented(segs, segments, workers) {
			_, _, err = stats.ObserveStreams(context.Background(), a, segs, stats.StreamOptions{
				Workers: workers, Segments: segments, Hooks: h,
			})
		} else {
			_, err = stats.ObserveSegmentsParallelHooked(context.Background(), a, segs, workers, h)
		}
	case "dfa":
		if workers == 1 {
			_, _, _, err = runDFAWhole(a, segs, segments, nil, nil, col)
		} else {
			_, _, _, err = runDFAParallel(a, segs, workers, segments, nil, nil, col)
		}
	default:
		return nil, usageErrorf("unknown engine %q", engine)
	}
	if err != nil {
		return nil, err
	}
	return col, nil
}

// explainDoc is the -json layout: a fixed-order struct, so encoding is
// deterministic for fixed contents.
type explainDoc struct {
	Benchmark string      `json:"benchmark"`
	Engine    string      `json:"engine"`
	Patterns  int         `json:"patterns"`
	Rows      []attr.Cost `json:"rows"`
}

// writeExplain renders the collector's folded top-K rows as the text
// table or JSON. Output depends only on the committed totals, never on
// timing, scheduling, or cache configuration.
func writeExplain(w io.Writer, bench, engine string, col *attr.Collector, topK int, asJSON bool) error {
	rows := attr.Top(col.Fold(), topK)
	nPat := col.Provenance().NumPatterns()
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(explainDoc{Benchmark: bench, Engine: engine, Patterns: nPat, Rows: rows})
	}
	if _, err := fmt.Fprintf(w, "%s [%s]: %d patterns, showing %d\n", bench, engine, nPat, len(rows)); err != nil {
		return err
	}
	return attr.WriteText(w, rows)
}
