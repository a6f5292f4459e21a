package fleet

import (
	"errors"
	"math/rand"
	"testing"

	"esti/internal/batching"
	"esti/internal/faults"
)

// FuzzFaultPlan decodes an arbitrary byte string into a fault plan —
// including malformed ones — and drives the fleet simulation with it,
// autoscaled under a policy drawn from auto when auto is not 0. A plan that
// fails validation must surface as ErrInvalidConfig from Simulate; a valid
// plan must run to completion, never panic (an illegal lifecycle move
// panics), and keep the fault-accounting invariants (outcome partition,
// per-replica token sums, single-booked wasted work) and the lifetime
// invariants.
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0, 1, 8, 0, 0}, int64(1))                   // crash replica 0 @ 0.5
	f.Add([]byte{0, 1, 8, 0, 0, 2, 1, 32, 0, 0}, int64(2))   // crash + recover
	f.Add([]byte{4, 0, 16, 24, 0, 5, 0, 64, 0, 0}, int64(0)) // straggle window
	f.Add([]byte{5, 0, 16, 0, 0, 6, 0, 48, 0, 0}, int64(3))  // link outage
	f.Add([]byte{7, 9, 255, 255, 255}, int64(0))             // invalid kind / replica
	f.Fuzz(func(t *testing.T, raw []byte, auto int64) {
		const replicas = 3
		var plan faults.Plan
		for i := 0; i+5 <= len(raw) && len(plan.Events) < 12; i += 5 {
			// 5 bytes → one event; the ranges deliberately spill outside
			// the valid domain (kind 7+, replica -1..4, factor < 1) so the
			// validator's rejections are exercised too.
			plan.Events = append(plan.Events, faults.Event{
				Kind:    faults.Kind(raw[i] % 9),
				Replica: int(raw[i+1]%6) - 1,
				At:      float64(raw[i+2]) / 24.0,
				Factor:  float64(raw[i+3]) / 16.0,
			})
		}
		trace := zipfTrace(40, 0.02, 5)
		c := Config{Replica: replicaConfig(), Replicas: replicas, Policy: Affinity,
			Faults: plan, Recovery: RecoveryPolicy{BrownoutBelow: 0.5}}
		if auto != 0 {
			c.Autoscale = drawPolicy(rand.New(rand.NewSource(auto)))
		}
		res, err := Simulate(c, trace)
		if err != nil {
			if plan.Validate(replicas) == nil {
				t.Fatalf("valid plan rejected: %v", err)
			}
			if !errors.Is(err, batching.ErrInvalidConfig) {
				t.Fatalf("invalid plan surfaced as %v, want ErrInvalidConfig", err)
			}
			return
		}
		if verr := plan.Validate(replicas); verr != nil {
			t.Fatalf("invalid plan (%v) was simulated anyway", verr)
		}
		checkFaultInvariants(t, res, 40)
		checkLifetimes(t, res)
	})
}
