package automata_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/regex"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
)

// compilePatterns builds one automaton holding every pattern, report code
// = pattern index.
func compilePatterns(t *testing.T, patterns ...string) *automata.Automaton {
	t.Helper()
	b := automata.NewBuilder()
	for i, p := range patterns {
		parsed, err := regex.Parse(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := regex.CompileInto(b, parsed, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// mixedPatterns gives the prefilter both anchored components (literal
// heads) and residual ones (class heads), so its residual is an
// extracted sub-automaton with its own sim tables.
var mixedPatterns = []string{"hello", "world+s", "[ab]cd+e", "x[0-9]+y", "abcab"}

// testStreams returns n deterministic streams that hit every pattern.
func testStreams(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("zz hello %d acdde x%dy worldss abcabcab %d bcddde helloworlds", i, i*7, i))
	}
	return out
}

// refStats scans every stream on a sequential sim engine.
func refStats(a *automata.Automaton, streams [][]byte) []sim.Stats {
	e := sim.New(a)
	out := make([]sim.Stats, len(streams))
	for i, s := range streams {
		e.Reset()
		out[i] = e.Run(s)
	}
	return out
}

func prefilterFactory(a *automata.Automaton) (segment.Engine, error) { return prefilter.New(a) }

// TestCompileOnceAcrossSegmentRuns: scanning 50 streams through
// segment.Run with the prefilter factory builds hundreds of engines but
// compiles the prefilter tables once and the residual's sim tables once.
func TestCompileOnceAcrossSegmentRuns(t *testing.T) {
	a := compilePatterns(t, mixedPatterns...)
	streams := testStreams(50)
	want := refStats(a, streams) // compiles a's own sim tables first

	simBefore, pfBefore := automata.CompileCount("sim"), automata.CompileCount("prefilter")
	for i, s := range streams {
		res, err := segment.Run(context.Background(), a, s, segment.Options{
			Segments: 4, Workers: 2, Warmup: 16, NewEngine: prefilterFactory,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != want[i] {
			t.Fatalf("stream %d: segmented prefilter stats %+v, sequential sim %+v", i, res.Stats, want[i])
		}
	}
	if d := automata.CompileCount("prefilter") - pfBefore; d != 1 {
		t.Errorf("prefilter tables compiled %d times over 50 segmented runs, want 1", d)
	}
	if d := automata.CompileCount("sim") - simBefore; d != 1 {
		t.Errorf("sim tables compiled %d times over 50 segmented runs, want 1 (the residual's)", d)
	}
}

// TestPlanRunExtractsSlicesOnce: repeated Plan.Run calls, unsegmented
// and segmented, extract each slice once and so compile one set of sim
// tables per slice; Extract returns the same automaton every time.
func TestPlanRunExtractsSlicesOnce(t *testing.T) {
	a := compilePatterns(t, mixedPatterns...)
	sizes, _ := a.Components()
	plan, err := partition.Partition(a, slices.Max(sizes))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Passes() < 3 {
		t.Fatalf("plan has %d slices, want >= 3 to exercise reuse", plan.Passes())
	}
	input := testStreams(1)[0]
	want := refStats(a, [][]byte{input})[0]

	before := automata.CompileCount("sim")
	const runs = 6
	for r := 0; r < runs; r++ {
		res, err := plan.Run(context.Background(), input, partition.RunOptions{Workers: 2, Segments: r % 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Active != want.Active || res.Enabled != want.Enabled || res.Reports != want.Reports {
			t.Fatalf("run %d: partitioned %+v, sequential %+v", r, res, want)
		}
	}
	if d := automata.CompileCount("sim") - before; d != int64(plan.Passes()) {
		t.Errorf("%d runs compiled sim tables %d times, want once per slice (%d)", runs, d, plan.Passes())
	}
	for i := 0; i < plan.Passes(); i++ {
		x, _ := plan.Extract(i)
		y, _ := plan.Extract(i)
		if x != y {
			t.Errorf("slice %d extracted twice", i)
		}
	}
}

// TestConcurrentCompileSharesTables: 8 goroutines constructing sim and
// prefilter engines on one fresh automaton at once compile each table set
// exactly once and scan identically. Run under -race (make race-parallel).
func TestConcurrentCompileSharesTables(t *testing.T) {
	a := compilePatterns(t, mixedPatterns...)
	input := slices.Concat(testStreams(8)...)
	simBefore, pfBefore := automata.CompileCount("sim"), automata.CompileCount("prefilter")

	const goroutines = 8
	digests := make([][2][]sim.Report, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			se := sim.New(a)
			se.CollectReports = true
			se.Run(input)
			pe, err := prefilter.New(a)
			if err != nil {
				t.Error(err)
				return
			}
			pe.CollectReports = true
			pe.Run(input)
			digests[g] = [2][]sim.Report{canon(se.Reports()), canon(pe.Reports())}
		}(g)
	}
	wg.Wait()

	// One compile per (automaton, key): a's sim tables, the prefilter
	// tables, and the sim tables of the prefilter's residual sub-automaton.
	if d := automata.CompileCount("sim") - simBefore; d != 2 {
		t.Errorf("sim tables compiled %d times, want 2 (the automaton's and the residual's)", d)
	}
	if d := automata.CompileCount("prefilter") - pfBefore; d != 1 {
		t.Errorf("prefilter tables compiled %d times, want 1", d)
	}
	if len(digests[0][0]) == 0 {
		t.Fatal("no reports: the input does not exercise the patterns")
	}
	for g := range digests {
		for k, name := range []string{"sim", "prefilter"} {
			if !slices.Equal(digests[g][k], digests[0][0]) {
				t.Errorf("goroutine %d: %s reports differ from goroutine 0's sim reports", g, name)
			}
		}
	}
}

// canon sorts reports into (offset, code, state) order.
func canon(rs []sim.Report) []sim.Report {
	rs = slices.Clone(rs)
	slices.SortFunc(rs, func(x, y sim.Report) int {
		if x.Offset != y.Offset {
			return int(x.Offset - y.Offset)
		}
		if x.Code != y.Code {
			return int(x.Code - y.Code)
		}
		return int(x.State) - int(y.State)
	})
	return rs
}
