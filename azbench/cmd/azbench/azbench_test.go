package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
)

var update = flag.Bool("update", false, "rewrite pins.json from the current reference")

// small is a quick workload touching every layer: anchored literals, a
// counter kernel (no dfa, no speculation) and many tiny streams.
var small = workloadSpec{
	name: "small",
	kernels: []kernelSpec{
		{slug: "snort", name: "Snort", scale: 0.01, input: 16 << 10},
		{slug: "file-carving", name: "File Carving", scale: 0.01, input: 16 << 10},
		{slug: "seq-match-6w-6p-wc", name: "Seq. Match 6w 6p wC", scale: 0.02, input: 4 << 10},
		{slug: "random-forest-b", name: "Random Forest B", scale: 0.01, streams: 4},
	},
	setups: 1,
}

func run(t *testing.T, w workloadSpec, trace bool, eng engines) *bench {
	t.Helper()
	b, err := execute(config{w: w, seed: defaultSeed, trace: trace, nproc: 2, eng: eng})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dropFirst loses the first report delivered after each SetOnReport.
type dropFirst struct{ segment.Engine }

func (d dropFirst) SetOnReport(fn func(sim.Report)) {
	if fn == nil {
		d.Engine.SetOnReport(nil)
		return
	}
	dropped := false
	d.Engine.SetOnReport(func(r sim.Report) {
		if !dropped {
			dropped = true
			return
		}
		fn(r)
	})
}

func TestPlantedDroppedReportIsCaught(t *testing.T) {
	w := workloadSpec{name: "carving", kernels: small.kernels[1:2], setups: 1}
	eng := defaultEngines
	eng.prefilter = func(a *automata.Automaton) (segment.Engine, error) {
		e, err := defaultEngines.prefilter(a)
		return dropFirst{e}, err
	}
	b := run(t, w, false, eng)
	if b.ks[0].ref[0].reports == 0 {
		t.Fatal("kernel has no reports to drop")
	}
	if b.s.failed == 0 {
		t.Fatalf("dropped report not caught: %d scan calls, 0 failed", b.s.attempted)
	}
	for _, msg := range b.s.mismatches {
		path := strings.Fields(msg)[0]
		if path != "prefilter" && path != "seg_prefilter" {
			t.Errorf("mismatch blamed on %s, whose engine is sound: %s", path, msg)
		}
	}

	clean := run(t, w, false, defaultEngines)
	if clean.s.failed != 0 {
		t.Fatalf("sound engines failed: %v", clean.s.mismatches)
	}
}

// exactCounters are the per-layer metrics that count work rather than
// time it; they must repeat exactly across runs on one seed.
var exactCounters = []string{
	"automata.states", "automata.edges", "automata.components",
	"sim.enabled_per_byte", "sim.active_per_byte", "sim.counter_pulses",
	"dfa.states", "dfa.fallbacks", "dfa.fallback_bytes", "dfa.miss_rate", "dfa.cache_bytes",
	"prefilter.anchored_frac", "prefilter.anchor_hits_per_kb",
	"segment.speculated", "segment.committed", "segment.replayed", "segment.replay_bytes", "segment.warmup_bytes",
	"segment.nfa.engines_built", "segment.prefilter.engines_built",
	"partition.passes", "partition.engines_built",
}

func TestExactCountersRepeat(t *testing.T) {
	first := run(t, small, true, defaultEngines).perLayerMetrics()
	second := run(t, small, true, defaultEngines).perLayerMetrics()
	for _, name := range exactCounters {
		a, ok := first[name]
		if !ok {
			t.Errorf("%s: not reported", name)
			continue
		}
		if b := second[name]; a != b {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
	// The workload exercises each counter's mechanism at least once.
	for _, name := range []string{"sim.counter_pulses", "prefilter.anchor_hits_per_kb", "segment.committed", "segment.nfa.engines_built", "partition.engines_built"} {
		if first[name] == 0 {
			t.Errorf("%s is 0; the test workload does not exercise it", name)
		}
	}
}

func TestPinnedReferences(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]pin{}
	for _, w := range workloads {
		ks, _, err := setup(w, defaultSeed, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[w.name] = map[string]pin{}
		for _, k := range ks {
			got[w.name][k.spec.slug] = pinOf(reference(k))
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pins.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for w, kernels := range got {
		for slug, p := range kernels {
			if pins[w][slug] != p {
				t.Errorf("%s/%s: reference %+v, pinned %+v", w, slug, p, pins[w][slug])
			}
		}
	}
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the catalog %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mbps, spread []float64) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range mbps {
			enc.Encode(map[string]runRecord{"run": {Workload: "literal", Detail: map[string]value{"failed_frac": {}}}})
			enc.Encode(result{Correct: true, Attempted: 1, Metrics: map[string]value{
				"nfa_mbps":        {Value: mbps[i], Unit: "MB/s"},
				"dfa_mbps":        {Value: spread[i], Unit: "MB/s"},
				"sim.construct_s": {Value: mbps[i] / 100, Unit: "s"},
			}})
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parent := write("parent", []float64{100, 101, 99, 100, 100}, []float64{10, 20, 5, 15, 10})
	change := write("change", []float64{50, 51, 49, 50, 50}, []float64{10, 20, 5, 15, 10})
	var out bytes.Buffer
	if err := compare(&out, parent, change); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nfa_mbps", "worse", "dfa_mbps", "unresolved", "per-layer deltas: sim.construct_s -50%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
