package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"automatazoo/internal/core"
	"automatazoo/internal/report"
)

// cmdBench runs a selectable kernel set N times each and writes the
// aggregated run manifest to BENCH_<label>.json — the artifact half of
// the bench → benchdiff regression-gate workflow (see EXPERIMENTS.md).
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	scale, input, seed := suiteFlags(fs)
	label := fs.String("label", "local", "artifact label (written to BENCH_<label>.json)")
	runs := fs.Int("runs", 3, "timed repetitions per kernel")
	kernels := fs.String("kernels", "", "comma-separated kernel filters (exact name or substring; empty = whole suite)")
	workers := fs.Int("j", 1, "workers per kernel scan (1 = exact sequential engine; kernels themselves run sequentially)")
	segments := fs.Int("segments", 0, "when > 1, also time each kernel as an N-segment parallel scan, recorded as an extra <name>@seg<N> row (<= 1 = plain rows only)")
	pf := fs.Bool("prefilter", false, "also time each kernel on the two-stage literal prefilter engine, recorded as an extra <name>@pf row")
	out := fs.String("o", "", "output file (default BENCH_<label>.json)")
	timestamp := fs.String("timestamp", "", "RFC3339 provenance timestamp (default now; fix it for reproducible artifacts)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	ts := time.Now().UTC()
	if *timestamp != "" {
		var err error
		ts, err = time.Parse(time.RFC3339, *timestamp)
		if err != nil {
			return fmt.Errorf("bench: bad -timestamp: %w", err)
		}
	}
	var filters []string
	if *kernels != "" {
		filters = strings.Split(*kernels, ",")
	}
	m, err := report.Bench(report.BenchOptions{
		Label:     *label,
		Runs:      *runs,
		Kernels:   filters,
		Config:    core.Config{Scale: *scale, InputBytes: *input, Seed: *seed},
		Workers:   *workers,
		Segments:  *segments,
		Prefilter: *pf,
		Timestamp: ts,
	})
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = report.ArtifactName(*label)
	}
	if err := m.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("bench %q: %d kernels x %d runs -> %s\n", *label, len(m.Kernels), *runs, path)
	fmt.Printf("%-24s %9s %14s %14s %14s\n", "Kernel", "States", "Min", "Mean", "Max")
	for _, k := range m.Kernels {
		if k.Throughput == nil {
			continue
		}
		fmt.Printf("%-24s %9d %9.2f %s %9.2f %s %9.2f %s\n",
			k.Name, k.States,
			k.Throughput.Min, k.Unit, k.Throughput.Mean, k.Unit, k.Throughput.Max, k.Unit)
	}
	return nil
}

// cmdBenchDiff compares two bench manifests and exits non-zero when any
// kernel's mean throughput regressed beyond the threshold — the gate half
// of the workflow.
func cmdBenchDiff(args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	threshold := fs.String("threshold", "5%", `regression threshold ("5%" or "0.05")`)
	// Accept the two manifest paths before or after the flags.
	var paths []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		paths = append(paths, args[0])
		args = args[1:]
	}
	fs.Parse(args)
	paths = append(paths, fs.Args()...)
	if len(paths) != 2 {
		return usageErrorf("benchdiff: want exactly two manifests (azoo benchdiff old.json new.json), got %d", len(paths))
	}
	th, err := report.ParseThreshold(*threshold)
	if err != nil {
		return usageErrorf("%v", err)
	}
	oldM, err := report.ReadFile(paths[0])
	if err != nil {
		return err
	}
	newM, err := report.ReadFile(paths[1])
	if err != nil {
		return err
	}
	d := report.Compare(oldM, newM, th)
	if err := d.Write(os.Stdout); err != nil {
		return err
	}
	if d.HasRegressions() {
		return regressionError{n: len(d.Regressions), threshold: *threshold}
	}
	return nil
}

// cmdVersion prints the build's module version and VCS revision — the
// same provenance recorded in every run-report manifest.
func cmdVersion() error {
	fmt.Println(report.VersionString())
	return nil
}
