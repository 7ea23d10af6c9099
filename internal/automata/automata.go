// Package automata implements the homogeneous finite-automata model used
// throughout the AutomataZoo suite.
//
// A homogeneous automaton (the ANML/MNRL model of Micron's Automata
// Processor) attaches the match condition to the *state* rather than the
// edge: every state ("STE", state transition element) carries a 256-bit
// character class and matches an input symbol iff the symbol is in the
// class. All incoming transitions to a state therefore share one label,
// which is what makes the model directly implementable as a spatial fabric
// and what VASim, REAPR, and the AP itself execute.
//
// Execution semantics (one "cycle" per input symbol):
//
//   - A state is *enabled* if it may inspect the current symbol: start-of-data
//     states are enabled on the first symbol only, all-input states on every
//     symbol, and any state is enabled when one of its predecessors was
//     active on the previous symbol.
//   - An enabled state whose class contains the symbol becomes *active*; an
//     active reporting state emits a report (input offset, report code).
//   - An active state enables its STE successors for the next symbol and
//     pulses its counter successors in the current one.
//
// Counter elements are the Micron AP extension used by the Sequence
// Matching "wC" benchmarks: each pulse increments the counter, and on
// reaching its target the counter fires (enabling successors and/or
// reporting) and, in rollover mode, resets.
//
// Automata are constructed with a Builder and frozen into an immutable
// CSR-encoded Automaton for simulation, analysis, and transformation.
package automata

import (
	"fmt"
	"sync"

	"automatazoo/internal/charset"
)

// StateID names a state within one automaton. IDs are dense, starting at 0.
type StateID = uint32

// NoState is a sentinel for "no state".
const NoState = ^StateID(0)

// StartType says when a state self-enables, independent of predecessors.
type StartType uint8

const (
	// StartNone states are enabled only by an active predecessor.
	StartNone StartType = iota
	// StartOfData states are enabled on the first input symbol only.
	StartOfData
	// StartAllInput states are enabled on every input symbol.
	StartAllInput
)

func (s StartType) String() string {
	switch s {
	case StartNone:
		return "none"
	case StartOfData:
		return "start-of-data"
	case StartAllInput:
		return "all-input"
	default:
		return fmt.Sprintf("StartType(%d)", uint8(s))
	}
}

// Kind distinguishes ordinary STEs from counter elements.
type Kind uint8

const (
	// KindSTE is an ordinary state with a character class.
	KindSTE Kind = iota
	// KindCounter is a threshold counter element (AP extension).
	KindCounter
)

// CounterMode selects what a counter does after firing.
type CounterMode uint8

const (
	// CountRollover resets the counter to zero after it fires.
	CountRollover CounterMode = iota
	// CountLatch keeps the counter latched: it fires once and then ignores
	// further pulses until the engine is reset.
	CountLatch
)

// Counter holds the static configuration of a counter element.
type Counter struct {
	Target uint32
	Mode   CounterMode
}

// flag bits packed per state in the frozen automaton.
const (
	flagReport  uint8 = 1 << 0
	flagCounter uint8 = 1 << 1
	// start type occupies bits 2-3
	flagStartShift = 2
	flagStartMask  = 3 << flagStartShift
)

// Automaton is a frozen, immutable homogeneous automaton. Edges are stored
// in CSR form (EdgeOff/Edges); per-state character classes are interned
// handles into the shared charset table. The engines' compiled tables are
// cached on it (see Compiled), so an Automaton must not be copied.
type Automaton struct {
	table *charset.Table

	css    []charset.Handle // per-state class handle (unused for counters)
	flags  []uint8          // report / counter / start-type bits
	report []int32          // per-state report code (valid iff flagReport)

	edgeOff []uint32  // len = states+1
	edges   []StateID // flat successor lists

	counters map[StateID]Counter

	starts []StateID // all states with StartType != StartNone, ascending

	cache sync.Map // *CacheKey → *cacheSlot, filled by Compiled
}

// NumStates returns the number of elements (STEs plus counters).
func (a *Automaton) NumStates() int { return len(a.css) }

// NumEdges returns the total number of directed edges.
func (a *Automaton) NumEdges() int { return len(a.edges) }

// Table returns the interned charset table backing the automaton.
func (a *Automaton) Table() *charset.Table { return a.table }

// Class returns the character class of state id. Counters return the empty
// class.
func (a *Automaton) Class(id StateID) charset.Set {
	if a.flags[id]&flagCounter != 0 {
		return charset.Set{}
	}
	return a.table.Set(a.css[id])
}

// ClassHandle returns the interned class handle of state id.
func (a *Automaton) ClassHandle(id StateID) charset.Handle { return a.css[id] }

// Start returns the start type of state id.
func (a *Automaton) Start(id StateID) StartType {
	return StartType((a.flags[id] & flagStartMask) >> flagStartShift)
}

// IsReport reports whether state id emits a report when it matches/fires.
func (a *Automaton) IsReport(id StateID) bool { return a.flags[id]&flagReport != 0 }

// ReportCode returns the report code of state id (meaningful only when
// IsReport(id) is true).
func (a *Automaton) ReportCode(id StateID) int32 { return a.report[id] }

// Kind returns whether state id is an STE or a counter.
func (a *Automaton) Kind(id StateID) Kind {
	if a.flags[id]&flagCounter != 0 {
		return KindCounter
	}
	return KindSTE
}

// CounterConfig returns the counter configuration of a counter state.
func (a *Automaton) CounterConfig(id StateID) (Counter, bool) {
	c, ok := a.counters[id]
	return c, ok
}

// NumCounters returns the number of counter elements.
func (a *Automaton) NumCounters() int { return len(a.counters) }

// Succ returns the successor list of state id. The caller must not modify
// the returned slice.
func (a *Automaton) Succ(id StateID) []StateID {
	return a.edges[a.edgeOff[id]:a.edgeOff[id+1]]
}

// OutDegree returns the number of successors of state id.
func (a *Automaton) OutDegree(id StateID) int {
	return int(a.edgeOff[id+1] - a.edgeOff[id])
}

// Starts returns all states with a start type, in ascending ID order. The
// caller must not modify the returned slice.
func (a *Automaton) Starts() []StateID { return a.starts }

// Reports returns the IDs of all reporting states, ascending.
func (a *Automaton) Reports() []StateID {
	var out []StateID
	for id := range a.flags {
		if a.flags[id]&flagReport != 0 {
			out = append(out, StateID(id))
		}
	}
	return out
}

// Reverse returns, for every state, the list of its predecessors. The
// result is freshly allocated on each call.
func (a *Automaton) Reverse() [][]StateID {
	indeg := make([]uint32, a.NumStates())
	for _, t := range a.edges {
		indeg[t]++
	}
	pred := make([][]StateID, a.NumStates())
	for i := range pred {
		if indeg[i] > 0 {
			pred[i] = make([]StateID, 0, indeg[i])
		}
	}
	for s := 0; s < a.NumStates(); s++ {
		for _, t := range a.Succ(StateID(s)) {
			pred[t] = append(pred[t], StateID(s))
		}
	}
	return pred
}

// MemoryFootprint returns an estimate of the frozen automaton's size in
// bytes, used by capacity accounting in the spatial model.
func (a *Automaton) MemoryFootprint() int {
	return len(a.css)*4 + len(a.flags) + len(a.report)*4 +
		len(a.edgeOff)*4 + len(a.edges)*4 + a.table.Len()*32
}
