package main

import (
	"fmt"
	"time"

	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/dfa"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/sim"
)

// kernelSpec is one suite kernel as a workload generates it.
type kernelSpec struct {
	slug    string  // metric-name suffix, e.g. nfa_mbps.snort
	name    string  // core.ByName key
	scale   float64 // core.Config.Scale
	input   int     // core.Config.InputBytes (ignored by Random Forest)
	streams int     // keep the first n streams Build returns; 0 keeps all
}

// workloadSpec is one benchmark workload. setups is how many times a run
// repeats the whole set-up (Build, one construction of each engine,
// partition.ForWorkers); setup_s is their median.
type workloadSpec struct {
	name    string
	kernels []kernelSpec
	setups  int
}

var workloads = []workloadSpec{
	{
		name: "literal",
		kernels: []kernelSpec{
			{slug: "snort", name: "Snort", scale: 0.01, input: 256 << 10},
			{slug: "clamav", name: "ClamAV", scale: 0.01, input: 64 << 10},
			{slug: "file-carving", name: "File Carving", scale: 0.01, input: 256 << 10},
		},
		setups: 7,
	},
	{
		name: "dense",
		kernels: []kernelSpec{
			{slug: "hamming-22x5", name: "Hamming 22x5", scale: 0.02, input: 8 << 10},
			{slug: "levenshtein-19x3", name: "Levenshtein 19x3", scale: 0.02, input: 8 << 10},
			{slug: "seq-match-6w-6p-wc", name: "Seq. Match 6w 6p wC", scale: 0.02, input: 8 << 10},
		},
		setups: 31,
	},
	{
		name: "many-streams",
		kernels: []kernelSpec{
			{slug: "random-forest-b", name: "Random Forest B", scale: 0.01, streams: 8},
		},
		setups: 5,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// kernel is a built kernel: the automaton, its streams, the partition plan
// the par_nfa path scans with, and the reference each scan is checked
// against.
type kernel struct {
	spec     kernelSpec
	a        *automata.Automaton
	streams  [][]byte
	bytes    int64
	counters bool // dfa.New rejects counter automata; the dfa path skips them
	plan     *partition.Plan
	ref      []outcome // per stream, from a sequential sim scan
}

// setup builds every kernel of w and constructs each engine once, the way a
// CLI run prepares before scanning, and returns the kernels (without their
// references yet) and the set-up's wall time.
func setup(w workloadSpec, seed uint64, nproc int, tr *tracer) ([]*kernel, time.Duration, error) {
	var st time.Duration
	ks := make([]*kernel, 0, len(w.kernels))
	for ki, spec := range w.kernels {
		b, err := core.ByName(spec.name)
		if err != nil {
			return nil, st, err
		}
		k := &kernel{spec: spec}
		var streams [][]byte
		d, err := timed(tr, "core.build", ki, func() (err error) {
			k.a, streams, err = b.Build(core.Config{Scale: spec.scale, InputBytes: spec.input, Seed: seed})
			return err
		})
		st += d
		if err != nil {
			return nil, st, fmt.Errorf("build %s: %w", spec.name, err)
		}
		if spec.streams > 0 && len(streams) > spec.streams {
			streams = streams[:spec.streams]
		}
		k.streams, k.counters = streams, k.a.NumCounters() > 0
		for _, s := range streams {
			k.bytes += int64(len(s))
		}

		d, _ = timed(tr, "sim.new", ki, func() error { sim.New(k.a); return nil })
		st += d
		if !k.counters {
			d, err = timed(tr, "dfa.new", ki, func() error { _, err := dfa.New(k.a); return err })
			st += d
			if err != nil {
				return nil, st, fmt.Errorf("dfa.New %s: %w", spec.name, err)
			}
		}
		d, err = timed(tr, "prefilter.new", ki, func() error { _, err := prefilter.New(k.a); return err })
		st += d
		if err != nil {
			return nil, st, fmt.Errorf("prefilter.New %s: %w", spec.name, err)
		}
		d, _ = timed(tr, "partition.plan", ki, func() error { k.plan = partition.ForWorkers(k.a, nproc); return nil })
		st += d
		ks = append(ks, k)
	}
	return ks, st, nil
}

// timed runs f inside a top-level span and returns its wall time.
func timed(tr *tracer, name string, ki int, f func() error) (time.Duration, error) {
	id := tr.start(name, -1, ki)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	tr.end(id)
	return d, err
}
