package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"automatazoo/internal/dfa"
	"automatazoo/internal/sim"
)

// fold reduces a report stream to a count and an order-independent digest
// of its (offset, code) multiset. Every path folds through the same add, so
// the oracle costs the same on each and allocates nothing per report.
type fold struct {
	n   int64
	sum uint64
}

func (f *fold) add(off int64, code int32) {
	f.n++
	f.sum += mix64(uint64(off)*0x9e3779b97f4a7c15 ^ uint64(uint32(code)))
}

func (f *fold) sim(r sim.Report) { f.add(r.Offset, r.Code) }
func (f *fold) dfa(r dfa.Report) { f.add(r.Offset, r.Code) }

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// outcome is what one scan call of one stream produced.
type outcome struct {
	reports int64
	digest  uint64
	stats   sim.Stats // Enabled, Active, CounterPulses are compared
	err     error
}

// agrees reports whether got matches the reference want. Every path must
// reproduce the report multiset; exact paths must also reproduce sim's
// work counters (the dfa engine keeps none of its own).
func agrees(got, want outcome, exact bool) bool {
	if got.err != nil || got.reports != want.reports || got.digest != want.digest {
		return false
	}
	return !exact || (got.stats.Enabled == want.stats.Enabled &&
		got.stats.Active == want.stats.Active &&
		got.stats.CounterPulses == want.stats.CounterPulses)
}

// pin is a kernel's reference at the default seed: the totals over its
// streams and a digest that also depends on which stream each report
// belongs to.
type pin struct {
	Reports       int64  `json:"reports"`
	Digest        string `json:"digest"`
	Enabled       int64  `json:"enabled"`
	Active        int64  `json:"active"`
	CounterPulses int64  `json:"counter_pulses"`
}

func pinOf(ref []outcome) pin {
	var p pin
	var d uint64
	for i, o := range ref {
		p.Reports += o.reports
		p.Enabled += o.stats.Enabled
		p.Active += o.stats.Active
		p.CounterPulses += o.stats.CounterPulses
		d += mix64(o.digest + uint64(i)*0x9e3779b97f4a7c15)
	}
	p.Digest = fmt.Sprintf("%016x", d)
	return p
}

// pinsJSON holds the default-seed references: workload → kernel slug → pin.
// Regenerate with `go test -run TestPinnedReferences -update`.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]map[string]pin, error) {
	var pins map[string]map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}
