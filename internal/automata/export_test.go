package automata

// CompileCount returns how many times tables under the cache key named
// name have been compiled, summed over every automaton in the process.
// Tests compare it before and after a workload to prove compile-once.
func CompileCount(name string) int64 {
	k, ok := cacheKeys.Load(name)
	if !ok {
		return 0
	}
	return k.(*CacheKey).compiles.Load()
}
