package batching

// CacheComparison is the head-to-head of the same continuous pool with and
// without shared-prefix reuse on the same trace.
type CacheComparison struct {
	Cached, Uncached Result
	// Speedup is the cached/uncached ratio of useful generated-token
	// throughput. Both runs serve identical requests, so the ratio isolates
	// the prefill work the cache removed.
	Speedup float64
}

// CompareNoCache replays the trace through the same deployment twice —
// prefix cache on and off — holding slots, chunking and every cost knob
// equal. On template-heavy traffic (SharedPrefixTrace) the cached run
// skips almost every template prefill, which is the useful-tok/s win the
// paper's cost model predicts for prefill-dominated admission.
func CompareNoCache(c Config, trace Trace) (CacheComparison, error) {
	on := c
	on.PrefixCache = true
	off := c
	off.PrefixCache = false

	cached, err := Simulate(on, trace)
	if err != nil {
		return CacheComparison{}, err
	}
	uncached, err := Simulate(off, trace)
	if err != nil {
		return CacheComparison{}, err
	}
	cmp := CacheComparison{Cached: cached, Uncached: uncached}
	if uncached.GenTokensPerSec > 0 {
		cmp.Speedup = cached.GenTokensPerSec / uncached.GenTokensPerSec
	}
	return cmp, nil
}
