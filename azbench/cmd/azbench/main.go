// Command azbench is the AutomataZoo repository benchmark. It builds the
// kernels of one workload, scans them through six scan paths (the engine
// and parallel-driver combinations behind `azoo run`), checks every scan
// call against a sequential NFA reference, and prints its metrics.
//
//	azbench --workload literal --seed 2592 --seconds 25 --trace 0
//	azbench compare parent.out change.out
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the same calls are wrapped in in-memory spans and the result carries the
// per-layer metrics, and the spans are written to --out-dir. The last line
// of standard output is the result object; the line before it records the
// run's provenance and the per-kernel rows. Run it through run.sh, which
// builds it from the checkout's sources.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

func main() {
	out := flag.String("out-dir", ".bench_build", "directory for span files")
	workload := flag.String("workload", "", "workload: literal, dense or many-streams")
	seedFlag := flag.String("seed", strconv.Itoa(defaultSeed), "generator seed (decimal or 0x hex)")
	seconds := flag.Float64("seconds", 25, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			fatal(fmt.Errorf("usage: azbench compare PARENT CHANGE"))
		}
		if err := compare(os.Stdout, flag.Arg(1), flag.Arg(2)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	w, err := workloadByName(*workload)
	if err != nil {
		fatal(err)
	}
	seed, err := strconv.ParseUint(*seedFlag, 0, 64)
	if err != nil {
		fatal(fmt.Errorf("--seed: %w", err))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	cfg := config{w: w, seed: seed, seconds: *seconds, trace: *trace == 1, nproc: runtime.NumCPU(), eng: defaultEngines}
	b, err := execute(cfg)
	if err != nil {
		fatal(err)
	}

	var metrics map[string]float64
	if !cfg.trace {
		metrics = b.endToEndMetrics()
	} else {
		metrics = b.perLayerMetrics()
		path := filepath.Join(*out, fmt.Sprintf("azbench-spans-%s-%d.ndjson", w.name, seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		if err := b.tr.write(path); err != nil {
			fatal(fmt.Errorf("write spans: %w", err))
		}
		fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	}
	for _, msg := range b.s.mismatches {
		fmt.Fprintln(os.Stderr, "MISMATCH", msg)
	}
	detail := b.detail()
	printTable(metrics, detail)

	run := runRecord{
		Workload: w.name, Seed: seed, Seconds: *seconds, Trace: *trace,
		Rounds: b.rounds, Provenance: provenance(), Detail: withUnits(detail),
	}
	res := result{Correct: b.s.failed == 0, Attempted: b.s.attempted, Failed: b.s.failed, Metrics: withUnits(metrics)}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]runRecord{"run": run}); err != nil {
		fatal(err)
	}
	if err := enc.Encode(res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "azbench:", err)
	os.Exit(2)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is the line before the result: what ran, where, and the
// per-kernel rows.
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Rounds     int               `json:"rounds"`
	Provenance map[string]string `json:"provenance"`
	Detail     map[string]value  `json:"detail"`
}

func withUnits(m map[string]float64) map[string]value {
	out := make(map[string]value, len(m))
	for k, v := range m {
		out[k] = value{Value: v, Unit: unitOf(k)}
	}
	return out
}

// provenance identifies the machine and the source a result came from.
func provenance() map[string]string {
	p := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"revision":   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["revision"] = s.Value
			case "vcs.modified":
				p["modified"] = s.Value
			}
		}
	}
	p["source"] = sourceDigest(".")
	return p
}

// sourceDigest hashes the Go sources under root (skipping dot-directories
// such as build outputs), so a result names its code even when the checkout
// carries no version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}

// printTable writes the metrics to standard error for a human reader.
func printTable(metrics, detail map[string]float64) {
	for _, m := range []map[string]float64{metrics, detail} {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", k, m[k], unitOf(k))
		}
	}
}
