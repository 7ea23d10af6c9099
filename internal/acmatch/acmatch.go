// Package acmatch implements Aho–Corasick multi-literal matching: the
// classic trie-with-failure-links automaton production scanners (including
// Hyperscan) use to prefilter literal-heavy rule sets before touching
// their regex engines. In this suite it serves two roles: a literal
// prefilter for signature benchmarks (ClamAV/YARA bodies are mostly exact
// bytes), and a third independent engine for differential testing of the
// NFA and DFA engines on literal workloads.
package acmatch

import (
	"fmt"
	"sort"
)

// Match is one literal occurrence: pattern index and the offset of its
// final byte.
type Match struct {
	Pattern int
	End     int64
}

// Matcher is a compiled Aho–Corasick automaton. Immutable after Compile;
// safe for concurrent scanning.
//
// Nodes are renumbered in BFS (shallowest-first) order after construction,
// and the shallowest maxDenseNodes nodes get fully resolved 256-entry
// transition rows: on realistic inputs the scan loop spends nearly all its
// time near the root, so those rows make stepping a single array load.
// Deeper nodes fall back to sparse goto maps with failure-link walks.
type Matcher struct {
	next   []map[byte]int32
	fail   []int32
	output [][]int32
	lens   []int

	dense [][256]int32 // rows for nodes [0, len(dense))
}

// maxDenseNodes bounds the dense-row memory: 1024 rows of 256 int32s,
// 1 MiB. A matcher now lives as long as its automaton (the prefilter
// caches it), so the rows are resident rather than transient. Scans
// rarely reach the deep nodes: with the prefilter on ClamAV's standard
// input, 132 of 65,536 steps (0.2%) start at a node >= 1024 at scale
// 0.01 (a 14,134-node trie); at scale 0.1 over 1 MiB it is 3.3%, and
// only 0.02% start at a node >= 4096. Deeper steps take the sparse
// goto/fail walk.
const maxDenseNodes = 1024

// Compile builds the matcher from the given byte patterns. Empty patterns
// are rejected; duplicates are allowed (each reports its own index).
func Compile(patterns [][]byte) (*Matcher, error) {
	m := &Matcher{
		next:   []map[byte]int32{{}},
		fail:   []int32{0},
		output: [][]int32{nil},
	}
	m.lens = make([]int, len(patterns))
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("acmatch: pattern %d is empty", i)
		}
		m.lens[i] = len(p)
		cur := int32(0)
		for _, c := range p {
			nxt, ok := m.next[cur][c]
			if !ok {
				nxt = int32(len(m.next))
				m.next = append(m.next, map[byte]int32{})
				m.fail = append(m.fail, 0)
				m.output = append(m.output, nil)
				m.next[cur][c] = nxt
			}
			cur = nxt
		}
		m.output[cur] = append(m.output[cur], int32(i))
	}
	// BFS to set failure links and merge outputs.
	queue := make([]int32, 0, len(m.next))
	for _, v := range m.next[0] {
		queue = append(queue, v)
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		// Deterministic child order keeps the BFS renumbering stable.
		children := make([]byte, 0, len(m.next[u]))
		for c := range m.next[u] {
			children = append(children, c)
		}
		sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })
		for _, c := range children {
			v := m.next[u][c]
			queue = append(queue, v)
			f := m.fail[u]
			for f != 0 {
				if w, ok := m.next[f][c]; ok {
					f = w
					goto linked
				}
				f = m.fail[f]
			}
			if w, ok := m.next[0][c]; ok && w != v {
				f = w
			} else {
				f = 0
			}
		linked:
			m.fail[v] = f
			m.output[v] = append(m.output[v], m.output[f]...)
		}
	}
	m.renumberBFS(queue)
	m.buildDense()
	return m, nil
}

// renumberBFS relabels nodes so that BFS order (root first, then by depth)
// is ascending — the precondition for the dense-row construction.
func (m *Matcher) renumberBFS(bfs []int32) {
	n := len(m.next)
	newID := make([]int32, n)
	newID[0] = 0
	for i, old := range bfs {
		newID[old] = int32(i + 1)
	}
	next := make([]map[byte]int32, n)
	fail := make([]int32, n)
	output := make([][]int32, n)
	for old := 0; old < n; old++ {
		nu := newID[old]
		mp := make(map[byte]int32, len(m.next[old]))
		for c, v := range m.next[old] {
			mp[c] = newID[v]
		}
		next[nu] = mp
		fail[nu] = newID[m.fail[old]]
		output[nu] = m.output[old]
	}
	m.next, m.fail, m.output = next, fail, output
}

// buildDense resolves full transition rows for the shallowest nodes.
// BFS numbering guarantees fail[u] < u, so rows can be filled in order
// using delta(u, c) = goto(u, c) or delta(fail(u), c).
func (m *Matcher) buildDense() {
	limit := len(m.next)
	if limit > maxDenseNodes {
		limit = maxDenseNodes
	}
	m.dense = make([][256]int32, limit)
	for u := 0; u < limit; u++ {
		for c := 0; c < 256; c++ {
			if v, ok := m.next[u][byte(c)]; ok {
				m.dense[u][c] = v
			} else if u == 0 {
				m.dense[u][c] = 0
			} else {
				f := m.fail[u]
				if int(f) < limit {
					m.dense[u][c] = m.dense[f][c]
				} else {
					// Shouldn't happen (fail links point shallower), but
					// stay correct if it ever does.
					m.dense[u][c] = m.slowStep(f, byte(c))
				}
			}
		}
	}
}

// NumNodes returns the trie size (including the root).
func (m *Matcher) NumNodes() int { return len(m.next) }

// step advances from state via byte c.
func (m *Matcher) step(state int32, c byte) int32 {
	if int(state) < len(m.dense) {
		return m.dense[state][c]
	}
	return m.slowStep(state, c)
}

// slowStep is the sparse goto/fail walk for deep nodes.
func (m *Matcher) slowStep(state int32, c byte) int32 {
	for {
		if nxt, ok := m.next[state][c]; ok {
			return nxt
		}
		if state == 0 {
			return 0
		}
		state = m.fail[state]
	}
}

// Scan finds all occurrences of all patterns in input, in end-offset
// order. For large result sets prefer ScanFunc.
func (m *Matcher) Scan(input []byte) []Match {
	var out []Match
	m.ScanFunc(input, func(mt Match) { out = append(out, mt) })
	return out
}

// ScanFunc streams matches to fn.
func (m *Matcher) ScanFunc(input []byte, fn func(Match)) {
	state := int32(0)
	for i, c := range input {
		state = m.step(state, c)
		for _, p := range m.output[state] {
			fn(Match{Pattern: int(p), End: int64(i)})
		}
	}
}

// StepFrom advances one byte from an explicit state, invoking fn for every
// pattern ending at this byte, and returns the new state. State 0 is the
// initial state. This is the streaming form used by incremental scanners.
func (m *Matcher) StepFrom(state int32, c byte, fn func(pattern int)) int32 {
	state = m.step(state, c)
	for _, p := range m.output[state] {
		fn(int(p))
	}
	return state
}

// PrefixWeights precomputes, per trie node, how many pattern-chain states
// a literal-chain NFA would have active and enabled when the matcher sits
// at that node. The two-stage prefilter (internal/prefilter) uses these to
// reproduce sim.Stats exactly without stepping the chains:
//
//   - active[u]: the number of (pattern, position) pairs whose prefix is a
//     suffix of the input when the matcher is at u after consuming a byte —
//     exactly the chain states a full NFA would have matched that byte.
//   - enabled[u]: the number of those pairs whose chain continues (the
//     position is not the pattern's last), i.e. the chain states enabled
//     for the NEXT byte, excluding the always-enabled chain heads (sim
//     excludes indexed all-input starts from Stats.Enabled).
//
// patterns must be the literal set the matcher was compiled from. The
// computation walks each pattern's goto path accumulating through/ends
// counts per node, then folds them down the failure links: BFS renumbering
// guarantees fail[u] < u, so one ascending pass resolves
// w[u] = w[fail[u]] + own[u].
func (m *Matcher) PrefixWeights(patterns [][]byte) (active, enabled []int64, err error) {
	n := len(m.next)
	through := make([]int64, n)
	ends := make([]int64, n)
	for i, p := range patterns {
		cur := int32(0)
		for _, c := range p {
			nxt, ok := m.next[cur][c]
			if !ok {
				return nil, nil, fmt.Errorf("acmatch: pattern %d not in trie (matcher compiled from a different set)", i)
			}
			cur = nxt
			through[cur]++
		}
		ends[cur]++
	}
	active = make([]int64, n)
	enabled = make([]int64, n)
	for u := 1; u < n; u++ {
		f := m.fail[u]
		active[u] = active[f] + through[u]
		enabled[u] = enabled[f] + through[u] - ends[u]
	}
	return active, enabled, nil
}

// Count returns per-pattern occurrence counts in input.
func (m *Matcher) Count(input []byte) []int64 {
	counts := make([]int64, len(m.lens))
	m.ScanFunc(input, func(mt Match) { counts[mt.Pattern]++ })
	return counts
}

// PatternLen returns the length of pattern i.
func (m *Matcher) PatternLen(i int) int { return m.lens[i] }
