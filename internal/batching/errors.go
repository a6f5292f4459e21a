package batching

import (
	"errors"

	"esti/internal/serve"
)

// Sentinel errors for admission and validation, checkable with errors.Is.
// ErrInfeasible is the value package serve's Analyze returns (one target
// matches either layer); the rest are the per-request admission outcomes
// the fleet router's shed decisions reuse.
var (
	// ErrInvalidConfig marks a Config that can never run (bad slot count,
	// capacity, chunk size).
	ErrInvalidConfig = errors.New("invalid serving configuration")
	// ErrInfeasible marks a deployment the perf model rejects at full
	// occupancy. Identical to serve.ErrInfeasible.
	ErrInfeasible = serve.ErrInfeasible
	// ErrInvalidTrace marks a malformed request a trace builder produced
	// (non-finite arrival, prefix outside the prompt) — a bug, not load.
	ErrInvalidTrace = errors.New("invalid trace request")
	// ErrPromptTooLong rejects a request whose Context+Gen exceed the
	// per-slot KV capacity: no slot could ever hold it.
	ErrPromptTooLong = errors.New("prompt exceeds slot capacity")
	// ErrNoSlots rejects an admission when every slot is occupied and the
	// queue is at its bound.
	ErrNoSlots = errors.New("no free slots")
	// ErrDeadline sheds a request whose estimated completion already
	// misses its deadline — serving it would waste chips on a token stream
	// the caller will discard.
	ErrDeadline = errors.New("deadline unmeetable")
	// ErrOverloaded sheds a low-priority request under overload so that
	// higher tiers keep their SLO.
	ErrOverloaded = errors.New("overloaded")
	// ErrReplicaDown marks work lost to a replica failure: the fleet's
	// terminal outcome for a request whose retries are exhausted (or never
	// attempted, under a naive no-retry policy), and the wasted-work cause
	// for KV discarded in a crash.
	ErrReplicaDown = errors.New("replica down")
	// ErrHedged tags the losing copy of a hedged request: the router
	// duplicated work stuck on a straggler, the other copy finished first,
	// and this copy's tokens are wasted work, not an error the caller sees.
	ErrHedged = errors.New("lost hedge race")
)
