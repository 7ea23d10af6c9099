package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// defaultSeed is the suite's default generator seed; its references are
// pinned in pins.json.
const defaultSeed = 0xa20

// config is one benchmark run.
type config struct {
	w       workloadSpec
	seed    uint64
	seconds float64 // measuring time after set-up and calibration
	trace   bool
	nproc   int
	eng     engines
}

// Rounds: every round runs every (kernel, path) pair, each pair repeating
// its pass enough times to fill an equal share of a round. Interleaving
// the pairs spreads the machine's noise evenly over them.
const (
	targetRounds = 40 // rounds the calibrated repetitions aim to fit in --seconds
	minRounds    = 3
	maxReps      = 16
)

type pairKey struct {
	k    int
	path string
}

// bench is the state of one run.
type bench struct {
	cfg    config
	ks     []*kernel
	setups []time.Duration
	s      scanner
	tr     *tracer // nil unless cfg.trace

	untraced map[pairKey][]float64 // pass wall seconds
	traced   map[pairKey][]float64
	counts   map[pairKey][]passCounts // per traced pass
	rounds   int

	allocMark uint64 // heap bytes allocated as of the last forced collection
}

// execute sets up, checks the reference, calibrates and measures.
func execute(cfg config) (*bench, error) {
	b := &bench{
		cfg:      cfg,
		s:        scanner{nproc: cfg.nproc, eng: cfg.eng},
		untraced: map[pairKey][]float64{},
		traced:   map[pairKey][]float64{},
		counts:   map[pairKey][]passCounts{},
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	for i := 0; i < cfg.w.setups; i++ {
		b.collectGarbage()
		ks, d, err := setup(cfg.w, cfg.seed, cfg.nproc, b.tr)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			b.ks = ks
		}
		b.setups = append(b.setups, d)
	}
	if err := b.checkReference(); err != nil {
		return nil, err
	}

	pairs := b.pairs()
	reps := map[pairKey]int{}
	share := cfg.seconds / targetRounds / float64(len(pairs))
	if cfg.trace {
		share /= 2 // each pair runs once untraced and once traced per round
	}
	for _, p := range pairs {
		reps[p] = maxReps
		if d := b.runPair(p, 1, false, nil); d > share/maxReps {
			reps[p] = max(1, int(share/d))
		}
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for b.rounds < minRounds || time.Now().Before(deadline) {
		for _, p := range pairs {
			b.runPair(p, reps[p], false, b.untraced)
			if cfg.trace {
				b.runPair(p, reps[p], true, b.traced)
			}
		}
		b.rounds++
	}
	return b, nil
}

// checkReference scans every kernel sequentially to make the reference
// and, at the default seed, checks it against the pinned one.
func (b *bench) checkReference() error {
	var pins map[string]pin
	if b.cfg.seed == defaultSeed {
		all, err := loadPins()
		if err != nil {
			return err
		}
		pins = all[b.cfg.w.name]
	}
	for _, k := range b.ks {
		k.ref = reference(k)
		b.s.attempted += int64(len(k.streams))
		if pins == nil {
			continue
		}
		if got, want := pinOf(k.ref), pins[k.spec.slug]; got != want {
			b.s.failed += int64(len(k.streams))
			b.s.mismatches = append(b.s.mismatches, fmt.Sprintf("reference %s: got %+v, pinned %+v", k.spec.slug, got, want))
		}
	}
	return nil
}

// pairs lists the (kernel, path) pairs of a round; dfa skips counter
// automata, which dfa.New rejects by design.
func (b *bench) pairs() []pairKey {
	var ps []pairKey
	for ki, k := range b.ks {
		for _, path := range pathNames {
			if path == "dfa" && k.counters {
				continue
			}
			ps = append(ps, pairKey{ki, path})
		}
	}
	return ps
}

// runPair runs reps passes of one pair, records their wall times into rec
// (nil discards them) and returns the last pass's seconds.
func (b *bench) runPair(p pairKey, reps int, traced bool, rec map[pairKey][]float64) float64 {
	b.s.tr = nil
	if traced {
		b.s.tr = b.tr
	}
	k := b.ks[p.k]
	var e any
	var d float64
	for i := 0; i < reps; i++ {
		b.collectGarbage()
		if _, seq := layerOf[p.path]; seq && (e == nil || p.path == "dfa") {
			var err error
			if e, err = b.s.construct(k, p.k, p.path); err != nil {
				for range k.streams {
					b.s.attempted++
					b.s.fail(fmt.Sprintf("%s %s: construct: %v", p.path, k.spec.slug, err))
				}
				return 0
			}
		}
		b.collectGarbage()
		dur, pc := b.s.pass(k, p.k, p.path, e)
		d = dur.Seconds()
		if rec != nil {
			rec[p] = append(rec[p], d)
		}
		if traced {
			b.counts[p] = append(b.counts[p], pc)
		}
	}
	return d
}

// collectGarbage runs a collection when earlier work left more than 1 MiB
// of garbage, so that no collection that garbage would trigger runs inside
// the next construction or timed pass: each one's peak memory and time are
// then its own. Passes that allocate little run back to back without one.
func (b *bench) collectGarbage() {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Uint64()-b.allocMark > 1<<20 {
		runtime.GC()
		metrics.Read(sample)
		b.allocMark = sample[0].Value.Uint64()
	}
}

// median of xs (NaN-free, non-empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
