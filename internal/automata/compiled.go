package automata

import (
	"fmt"
	"sync"
	"sync/atomic"

	"automatazoo/internal/charset"
)

// CacheKey names one kind of compiled tables kept on frozen automata —
// one key per compiling package, declared once at package level with
// NewCacheKey. Engines compile their read-only tables (start indexes,
// anchor plans, literal matchers) from an automaton once and share them
// across every engine built on it, the way a regexp.Regexp owns its
// compiled program while each match uses its own machine.
type CacheKey struct {
	compiles atomic.Int64 // compile calls under this key, all automata
}

// cacheKeys registers every key by name, so names stay unique.
var cacheKeys sync.Map // string → *CacheKey

// NewCacheKey registers a cache key. Each name may be registered once;
// a second registration is a programming error and panics.
func NewCacheKey(name string) *CacheKey {
	k := &CacheKey{}
	if _, dup := cacheKeys.LoadOrStore(name, k); dup {
		panic(fmt.Sprintf("automata: cache key %q registered twice", name))
	}
	return k
}

// cacheSlot holds one compiled value; once makes its compile exactly-once.
type cacheSlot struct {
	once sync.Once
	v    any
}

// Compiled returns the tables compile builds from a under key k. compile
// runs exactly once per (automaton, key), even when many goroutines ask
// at once: the first caller compiles, concurrent callers wait for it, and
// every caller receives the same value for as long as a lives. The value
// must be treated as read-only by everyone who receives it. A compile
// that fails should return its error inside T; it is cached like any
// other result, since compiling a frozen automaton is deterministic.
func Compiled[T any](a *Automaton, k *CacheKey, compile func(*Automaton) T) T {
	s, ok := a.cache.Load(k)
	if !ok {
		s, _ = a.cache.LoadOrStore(k, &cacheSlot{})
	}
	slot := s.(*cacheSlot)
	slot.once.Do(func() {
		k.compiles.Add(1)
		slot.v = compile(a)
	})
	return slot.v.(T)
}

// ClassHandles returns every state's interned class handle, indexed by
// state ID. The slice is the automaton's frozen array, shared rather than
// copied: callers must not modify it.
func (a *Automaton) ClassHandles() []charset.Handle { return a.css }

// CSR returns the frozen edge arrays: the successors of state s are
// edges[off[s]:off[s+1]]. Both slices are shared with the automaton;
// callers must not modify them.
func (a *Automaton) CSR() (off []uint32, edges []StateID) { return a.edgeOff, a.edges }

// ReportCodes returns every state's report code, indexed by state ID
// (meaningful only where IsReport holds). The slice is shared with the
// automaton; callers must not modify it.
func (a *Automaton) ReportCodes() []int32 { return a.report }
