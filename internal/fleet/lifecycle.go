package fleet

import "fmt"

// stage is a replica's place in its lifecycle: the package comment lists
// the moves, and only replica.move changes it.
type stage int

const (
	absent       stage = iota // not yet built
	healthy                   // serving
	degraded                  // a straggler: serving, each iteration stretched
	draining                  // finishing its resident work, taking none
	down                      // serving nothing: its KV, queue and warm set lost
	recovering                // serving again, its cache cold
	provisioning              // bought by a scale-out, not yet serving
	retiring                  // draining for release
	retired                   // released for good: keeps its index, never counts
)

var stageNames = [...]string{"absent", "healthy", "degraded", "draining", "down",
	"recovering", "provisioning", "retiring", "retired"}

// String names the stage for reports (ReplicaStats.FinalHealth).
func (st stage) String() string { return stageNames[st] }

// routable reports whether a replica in this stage accepts new work.
func (st stage) routable() bool { return st == healthy || st == degraded || st == recovering }

// up reports whether a replica in this stage runs its scheduler.
func (st stage) up() bool { return st.routable() || st == draining || st == retiring }

// lifeEvent is anything that moves a replica between stages: the fleet's
// own decisions, its replicas' progress, and the fault plan's events.
type lifeEvent int

const (
	onBuild lifeEvent = iota
	onScaleOut
	onProvisioned
	onServed // a final token, or a prefill handed off to the decode pool
	onSlowStart
	onSlowEnd
	onDrain
	onRecover
	onCrash
	onScaleIn
	onDrained // a draining or retiring replica ran dry
)

var eventNames = [...]string{"build", "scale-out", "provisioned", "served", "slow-start",
	"slow-end", "drain", "recover", "crash", "scale-in", "drained"}

func (ev lifeEvent) String() string { return eventNames[ev] }

// skip marks an event that does not reach a replica in that stage: nothing
// changes, and the caller does nothing (a crash of a down replica).
const skip stage = -1

// lifecycle[ev][from] is the stage event ev moves a replica in stage from
// to. An entry equal to from keeps the stage while the event still acts (a
// slowdown of a draining replica); a missing entry is an illegal move.
var lifecycle = [...]map[stage]stage{
	onBuild:       {absent: healthy},
	onScaleOut:    {absent: provisioning},
	onProvisioned: {provisioning: recovering},
	onServed: {healthy: healthy, degraded: degraded, draining: draining, recovering: healthy,
		retiring: retiring},
	onSlowStart: {healthy: degraded, degraded: degraded, draining: draining, recovering: degraded,
		retiring: retiring, down: skip, retired: skip},
	onSlowEnd: {healthy: healthy, degraded: healthy, draining: draining, recovering: recovering,
		retiring: retiring, down: down, retired: skip},
	onDrain: {healthy: draining, degraded: draining, recovering: draining,
		draining: skip, down: skip, retiring: skip, retired: skip},
	onRecover: {down: recovering, draining: healthy,
		healthy: skip, degraded: skip, recovering: skip, retiring: skip, retired: skip},
	onCrash: {healthy: down, degraded: down, draining: down, recovering: down, retiring: retired,
		down: skip, retired: skip},
	onScaleIn: {healthy: retiring, degraded: retiring},
	onDrained: {draining: down, retiring: retired},
}

// move applies lifecycle event ev to the replica at time t and reports
// whether the event reached it. It is the only writer of rep.stage, and the
// one place a stage change is booked: leaving absent stamps AddedAt, leaving
// down adds to Downtime, entering retired stamps RetiredAt. A move the table
// does not hold panics: it is a bug in the simulator, not in its input.
func (rep *replica) move(ev lifeEvent, t float64) bool {
	from := rep.stage
	to, ok := lifecycle[ev][from]
	switch {
	case !ok:
		panic(fmt.Sprintf("fleet: replica %d: illegal %s in stage %s", rep.idx, ev, from))
	case to == skip:
		return false
	case to == from:
		return true
	}
	switch from {
	case absent:
		rep.stats.AddedAt = t
	case down:
		rep.stats.Downtime += t - rep.since
	}
	if to == retired {
		rep.stats.RetiredAt = t
	}
	rep.stage, rep.since = to, t
	return true
}
