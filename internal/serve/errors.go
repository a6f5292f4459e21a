package serve

import "errors"

// ErrInfeasible marks a deployment the perf model rejects: the chosen
// batch/context does not fit the hardware (weights + KV exceed HBM).
// Callers branch with errors.Is; the wrapped message names the tier.
// Package batching aliases this value, so one errors.Is target covers both
// the pipeline analysis and the serving simulators.
var ErrInfeasible = errors.New("deployment infeasible")
