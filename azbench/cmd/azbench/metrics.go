package main

import (
	"math"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json. End-to-end metrics carry the
// bound by which a change may worsen them; per-layer metrics carry the
// end-to-end metric they should move and the workload where they do most
// of their work (BENCHMARK.json has no field for that, so it lives here).
type metricDef struct {
	name, unit, better string
	bound              float64
	moves, on          string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "nfa_mbps", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "dfa_mbps", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "prefilter_mbps", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "seg_nfa_mbps", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "seg_prefilter_mbps", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "par_nfa_mbps", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
}

var perLayer = []metricDef{
	{name: "core.build_s", unit: "s", better: "lower", moves: "setup_s", on: "many-streams"},
	{name: "automata.states", unit: "count", better: "lower", moves: "peak_rss_mb", on: "all"},
	{name: "automata.edges", unit: "count", better: "lower", moves: "peak_rss_mb", on: "all"},
	{name: "automata.components", unit: "count", better: "lower", moves: "dfa_mbps", on: "literal"},

	{name: "sim.construct_s", unit: "s", better: "lower", moves: "setup_s", on: "all"},
	{name: "sim.scan_s", unit: "s", better: "lower", moves: "nfa_mbps", on: "dense"},
	{name: "sim.enabled_per_byte", unit: "1/B", better: "lower", moves: "nfa_mbps", on: "dense"},
	{name: "sim.active_per_byte", unit: "1/B", better: "lower", moves: "nfa_mbps", on: "dense"},
	{name: "sim.counter_pulses", unit: "count", better: "lower", moves: "nfa_mbps", on: "dense"},
	{name: "sim.alloc_per_byte", unit: "B/B", better: "lower", moves: "nfa_mbps", on: "many-streams"},

	{name: "dfa.construct_s", unit: "s", better: "lower", moves: "setup_s", on: "all"},
	{name: "dfa.scan_s", unit: "s", better: "lower", moves: "dfa_mbps", on: "all"},
	{name: "dfa.subset_s", unit: "s", better: "lower", moves: "dfa_mbps", on: "many-streams,dense"},
	{name: "dfa.miss_rate", unit: "ratio", better: "lower", moves: "dfa_mbps", on: "many-streams,dense"},
	{name: "dfa.fallbacks", unit: "count", better: "lower", moves: "dfa_mbps", on: "dense"},
	{name: "dfa.fallback_bytes", unit: "B", better: "lower", moves: "dfa_mbps", on: "dense"},
	{name: "dfa.states", unit: "count", better: "lower", moves: "peak_rss_mb", on: "all"},
	{name: "dfa.cache_bytes", unit: "B", better: "lower", moves: "peak_rss_mb", on: "all"},
	{name: "dfa.alloc_per_byte", unit: "B/B", better: "lower", moves: "dfa_mbps", on: "all"},

	{name: "prefilter.construct_s", unit: "s", better: "lower", moves: "setup_s,seg_prefilter_mbps", on: "literal"},
	{name: "prefilter.scan_s", unit: "s", better: "lower", moves: "prefilter_mbps", on: "all"},
	{name: "prefilter.anchored_frac", unit: "ratio", better: "higher", moves: "prefilter_mbps", on: "literal"},
	{name: "prefilter.anchor_hits_per_kb", unit: "1/KB", better: "lower", moves: "prefilter_mbps", on: "literal"},
	{name: "prefilter.alloc_per_byte", unit: "B/B", better: "lower", moves: "prefilter_mbps", on: "all"},

	{name: "segment.nfa.engines_built", unit: "count", better: "lower", moves: "seg_nfa_mbps", on: "many-streams"},
	{name: "segment.nfa.construct_s", unit: "s", better: "lower", moves: "seg_nfa_mbps", on: "many-streams"},
	{name: "segment.nfa.self_s", unit: "s", better: "lower", moves: "seg_nfa_mbps", on: "all"},
	{name: "segment.prefilter.engines_built", unit: "count", better: "lower", moves: "seg_prefilter_mbps", on: "many-streams"},
	{name: "segment.prefilter.construct_s", unit: "s", better: "lower", moves: "seg_prefilter_mbps", on: "many-streams"},
	{name: "segment.prefilter.self_s", unit: "s", better: "lower", moves: "seg_prefilter_mbps", on: "all"},
	{name: "segment.speculated", unit: "count", better: "higher", moves: "seg_nfa_mbps,seg_prefilter_mbps", on: "literal,dense"},
	{name: "segment.committed", unit: "count", better: "higher", moves: "seg_nfa_mbps,seg_prefilter_mbps", on: "literal,dense"},
	{name: "segment.replayed", unit: "count", better: "lower", moves: "seg_nfa_mbps,seg_prefilter_mbps", on: "literal,dense"},
	{name: "segment.replay_bytes", unit: "B", better: "lower", moves: "seg_nfa_mbps,seg_prefilter_mbps", on: "literal,dense"},
	{name: "segment.warmup_bytes", unit: "B", better: "lower", moves: "seg_nfa_mbps,seg_prefilter_mbps", on: "literal,dense"},

	{name: "partition.plan_s", unit: "s", better: "lower", moves: "setup_s", on: "all"},
	{name: "partition.passes", unit: "count", better: "lower", moves: "par_nfa_mbps", on: "many-streams"},
	{name: "partition.engines_built", unit: "count", better: "lower", moves: "par_nfa_mbps", on: "many-streams"},
	{name: "partition.extract_s", unit: "s", better: "lower", moves: "par_nfa_mbps", on: "many-streams"},
	{name: "partition.construct_s", unit: "s", better: "lower", moves: "par_nfa_mbps", on: "many-streams"},
	{name: "partition.self_s", unit: "s", better: "lower", moves: "par_nfa_mbps", on: "all"},

	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none: traced run vs untraced run", on: "all"},
}

// unitOf returns the unit of a catalog metric or of a detail row.
func unitOf(name string) string {
	for _, m := range append(endToEnd, perLayer...) {
		if m.name == name {
			return m.unit
		}
	}
	if name == "failed_frac" {
		return "ratio"
	}
	return "MB/s" // per-kernel rows, <path>_mbps.<kernel>
}

// mbps is kernel ki's throughput on path: the bytes of all its untraced
// passes over their total wall time. ok is false when the path does not
// scan that kernel. The total, unlike the median pass, moves smoothly when
// interference from other tenants slows a varying share of the passes, so
// it repeats better from run to run.
func (b *bench) mbps(ki int, path string) (float64, bool) {
	xs := b.untraced[pairKey{ki, path}]
	if len(xs) == 0 {
		return 0, false
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return float64(b.ks[ki].bytes) * float64(len(xs)) / total / 1e6, true
}

// endToEndMetrics computes the untraced run's metrics.
func (b *bench) endToEndMetrics() map[string]float64 {
	m := map[string]float64{}
	setups := make([]float64, len(b.setups))
	for i, d := range b.setups {
		setups[i] = d.Seconds()
	}
	m["setup_s"] = median(setups)
	for _, path := range pathNames {
		logSum, n := 0.0, 0
		for ki := range b.ks {
			if v, ok := b.mbps(ki, path); ok {
				logSum += math.Log(v)
				n++
			}
		}
		m[path+"_mbps"] = math.Exp(logSum / float64(n))
	}
	m["peak_rss_mb"] = peakRSSMB()
	return m
}

// detail is what every run prints besides its contract metrics: the
// per-kernel throughput rows that show which kernel moved a geometric
// mean, and the failure share of the scan calls.
func (b *bench) detail() map[string]float64 {
	m := map[string]float64{"failed_frac": float64(b.s.failed) / float64(b.s.attempted)}
	for ki, k := range b.ks {
		for _, path := range pathNames {
			if v, ok := b.mbps(ki, path); ok {
				m[path+"_mbps."+k.spec.slug] = v
			}
		}
	}
	return m
}

// perLayerMetrics computes the traced run's metrics: times from the spans,
// exact counters from the traced passes.
func (b *bench) perLayerMetrics() map[string]float64 {
	units := b.tr.units()
	// layer sums, over the workload's kernels, the median per unit
	// occurrence of one span measure.
	layer := func(unit, name, mode string) float64 {
		total := 0.0
		for ki := range b.ks {
			if xs := units[unitKey{unit: unit, name: name, kernel: int32(ki), mode: mode}]; len(xs) > 0 {
				total += median(xs)
			}
		}
		return total
	}
	// count sums, over the kernels a path scans, the median per traced
	// pass of a pass counter. Exact counters repeat on every pass.
	count := func(path string, f func(passCounts) float64) float64 {
		total := 0.0
		for ki := range b.ks {
			pcs := b.counts[pairKey{ki, path}]
			if len(pcs) == 0 {
				continue
			}
			xs := make([]float64, len(pcs))
			for i, pc := range pcs {
				xs[i] = f(pc)
			}
			total += median(xs)
		}
		return total
	}
	// perByte divides the bytes a path allocates per pass by the bytes it
	// scans.
	perByte := func(path string) float64 {
		bytes := 0.0
		for ki, k := range b.ks {
			if len(b.counts[pairKey{ki, path}]) > 0 {
				bytes += float64(k.bytes)
			}
		}
		return count(path, func(pc passCounts) float64 { return float64(pc.alloc) }) / bytes
	}

	m := map[string]float64{}
	var states, edges, comps, symbols, enabled, active, pulses, bytes float64
	for _, k := range b.ks {
		sizes, _ := k.a.Components()
		states += float64(k.a.NumStates())
		edges += float64(k.a.NumEdges())
		comps += float64(len(sizes))
		bytes += float64(k.bytes)
		for _, r := range k.ref {
			symbols += float64(r.stats.Symbols)
			enabled += float64(r.stats.Enabled)
			active += float64(r.stats.Active)
			pulses += float64(r.stats.CounterPulses)
		}
	}
	m["core.build_s"] = layer("core.build", "core.build", "dur")
	m["automata.states"], m["automata.edges"], m["automata.components"] = states, edges, comps

	m["sim.construct_s"] = layer("sim.new", "sim.new", "dur")
	m["sim.scan_s"] = layer("nfa", "sim.run", "dur")
	m["sim.enabled_per_byte"] = enabled / symbols
	m["sim.active_per_byte"] = active / symbols
	m["sim.counter_pulses"] = pulses
	m["sim.alloc_per_byte"] = perByte("nfa")

	m["dfa.construct_s"] = layer("dfa.new", "dfa.new", "dur")
	m["dfa.scan_s"] = layer("dfa", "dfa.run", "dur")
	m["dfa.subset_s"] = count("dfa", func(pc passCounts) float64 { return float64(pc.dfa.ConstructNanos) / 1e9 })
	hits := count("dfa", func(pc passCounts) float64 { return float64(pc.dfa.CacheHits) })
	misses := count("dfa", func(pc passCounts) float64 { return float64(pc.dfa.CacheMisses) })
	m["dfa.miss_rate"] = misses / (hits + misses)
	m["dfa.fallbacks"] = count("dfa", func(pc passCounts) float64 { return float64(pc.dfa.Fallbacks) })
	m["dfa.fallback_bytes"] = count("dfa", func(pc passCounts) float64 { return float64(pc.dfa.FallbackBytes) })
	m["dfa.states"] = count("dfa", func(pc passCounts) float64 { return float64(pc.dfa.DFAStates) })
	m["dfa.cache_bytes"] = count("dfa", func(pc passCounts) float64 { return float64(pc.dfa.CacheBytes) })
	m["dfa.alloc_per_byte"] = perByte("dfa")

	m["prefilter.construct_s"] = layer("prefilter.new", "prefilter.new", "dur")
	m["prefilter.scan_s"] = layer("prefilter", "prefilter.run", "dur")
	anchored := count("prefilter", func(pc passCounts) float64 { return float64(pc.anchored) })
	unanchored := count("prefilter", func(pc passCounts) float64 { return float64(pc.unanchored) })
	m["prefilter.anchored_frac"] = anchored / (anchored + unanchored)
	m["prefilter.anchor_hits_per_kb"] = count("prefilter", func(pc passCounts) float64 { return float64(pc.anchorHits) }) / (bytes / 1024)
	m["prefilter.alloc_per_byte"] = perByte("prefilter")

	for _, eng := range []string{"nfa", "prefilter"} {
		unit, ctor := "seg_"+eng, layerOf[eng]+".new"
		m["segment."+eng+".engines_built"] = layer(unit, ctor, "count")
		m["segment."+eng+".construct_s"] = layer(unit, "segment.run", "covered")
		m["segment."+eng+".self_s"] = layer(unit, "segment.run", "self")
	}
	stitch := func(f func(pc passCounts) int64) float64 {
		return count("seg_nfa", func(pc passCounts) float64 { return float64(f(pc)) })
	}
	m["segment.speculated"] = stitch(func(pc passCounts) int64 { return pc.stitch.Speculated })
	m["segment.committed"] = stitch(func(pc passCounts) int64 { return pc.stitch.Committed })
	m["segment.replayed"] = stitch(func(pc passCounts) int64 { return pc.stitch.Replayed })
	m["segment.replay_bytes"] = stitch(func(pc passCounts) int64 { return pc.stitch.ReplayBytes })
	m["segment.warmup_bytes"] = stitch(func(pc passCounts) int64 { return pc.stitch.WarmupBytes })

	m["partition.plan_s"] = layer("partition.plan", "partition.plan", "dur")
	passes := 0.0
	for _, k := range b.ks {
		passes += float64(k.plan.Passes())
	}
	m["partition.passes"] = passes
	m["partition.engines_built"] = layer("par_nfa", "sim.new", "count")
	m["partition.extract_s"] = count("par_nfa", func(pc passCounts) float64 { return float64(pc.extract) / 1e9 })
	m["partition.construct_s"] = layer("par_nfa", "partition.run", "covered")
	m["partition.self_s"] = layer("par_nfa", "partition.run", "self")

	var tracedSum, untracedSum float64
	for p, xs := range b.traced {
		tracedSum += median(xs)
		untracedSum += median(b.untraced[p])
	}
	m["trace.overhead_frac"] = tracedSum/untracedSum - 1
	return m
}

// peakRSSMB is the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
