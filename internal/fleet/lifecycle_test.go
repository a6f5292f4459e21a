package fleet

import (
	"strings"
	"testing"
)

// Every stage × every event: the stage the move lands in, a skipped event
// (stage kept, move reports false), or the panic of an illegal move — and
// the bookkeeping move owns: AddedAt on leaving absent, Downtime on leaving
// down, RetiredAt on entering retired.
func TestLifecycleTable(t *testing.T) {
	// Columns follow the stage declaration order: absent, healthy, degraded,
	// draining, down, recovering, provisioning, retiring, retired. "-" is a
	// skipped event, "!" an illegal move.
	want := map[lifeEvent]string{
		onBuild:       "healthy ! ! ! ! ! ! ! !",
		onScaleOut:    "provisioning ! ! ! ! ! ! ! !",
		onProvisioned: "! ! ! ! ! ! recovering ! !",
		onServed:      "! healthy degraded draining ! healthy ! retiring !",
		onSlowStart:   "! degraded degraded draining - degraded ! retiring -",
		onSlowEnd:     "! healthy healthy draining down recovering ! retiring -",
		onDrain:       "! draining draining - - draining ! - -",
		onRecover:     "! - - healthy recovering - ! - -",
		onCrash:       "! down down down - down ! retired -",
		onScaleIn:     "! retiring retiring ! ! ! ! ! !",
		onDrained:     "! ! ! down ! ! ! retired !",
	}
	if len(want) != len(eventNames) {
		t.Fatalf("%d events in the test, %d in the table", len(want), len(eventNames))
	}
	const since, at = 2.0, 5.0
	for ev, row := range want {
		cols := strings.Fields(row)
		if len(cols) != len(stageNames) {
			t.Fatalf("%s: %d columns for %d stages", ev, len(cols), len(stageNames))
		}
		for i, col := range cols {
			from := stage(i)
			rep := &replica{stage: from, since: since}
			var moved bool
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				moved = rep.move(ev, at)
				return false
			}()
			switch col {
			case "!":
				if !panicked {
					t.Errorf("%s in %s: moved to %s, want a panic", ev, from, rep.stage)
				}
				continue
			case "-":
				if panicked || moved || rep.stage != from {
					t.Errorf("%s in %s: panicked %v, moved %v to %s; want skipped", ev, from, panicked, moved, rep.stage)
				}
				continue
			}
			if panicked || !moved || rep.stage.String() != col {
				t.Errorf("%s in %s: panicked %v, moved %v to %s; want %s", ev, from, panicked, moved, rep.stage, col)
				continue
			}
			// Only a change of stage books anything.
			changed := rep.stage != from
			wantAdded, wantDown, wantRetired, wantSince := 0.0, 0.0, 0.0, since
			if from == absent {
				wantAdded = at
			}
			if from == down && changed {
				wantDown = at - since
			}
			if rep.stage == retired {
				wantRetired = at
			}
			if changed {
				wantSince = at
			}
			if got := rep.stats; got.AddedAt != wantAdded || got.Downtime != wantDown ||
				got.RetiredAt != wantRetired || rep.since != wantSince {
				t.Errorf("%s in %s: AddedAt %g Downtime %g RetiredAt %g since %g, want %g %g %g %g", ev, from,
					got.AddedAt, got.Downtime, got.RetiredAt, rep.since, wantAdded, wantDown, wantRetired, wantSince)
			}
		}
	}
	for st, name := range map[stage]string{healthy: "healthy", degraded: "degraded", draining: "draining",
		down: "down", recovering: "recovering", retired: "retired"} {
		if st.String() != name {
			t.Errorf("stage %d names itself %q, want %q", int(st), st.String(), name)
		}
	}
	for st := absent; st <= retired; st++ {
		serving := st == healthy || st == degraded || st == recovering
		if st.routable() != serving {
			t.Errorf("%s routable %v, want %v", st, st.routable(), serving)
		}
		if st.up() != (serving || st == draining || st == retiring) {
			t.Errorf("%s up %v", st, st.up())
		}
	}
}
