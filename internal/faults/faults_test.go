package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestBuildersAndSorted(t *testing.T) {
	var p Plan
	p.Crash(1, 2.0, 6.0).Straggle(0, 1.0, 3.0, 2.5).LinkFail(2.5, 3.0).Drain(2, 0.5, -1)
	if len(p.Events) == 0 {
		t.Fatal("plan should not be empty")
	}
	if err := p.Validate(4); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	sorted := p.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].At < sorted[i-1].At {
			t.Fatalf("Sorted out of order at %d: %v", i, sorted)
		}
	}
	if sorted[0].Kind != Drain || sorted[0].At != 0.5 {
		t.Fatalf("first sorted event = %+v, want drain@0.5", sorted[0])
	}
	// Crash with no recoverAt emits a single event.
	var single Plan
	single.Crash(0, 1.0, -1)
	if len(single.Events) != 1 {
		t.Fatalf("unrecovered crash emitted %d events, want 1", len(single.Events))
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		reps int
	}{
		{"replica out of range", *new(Plan).Crash(5, 1, -1), 4},
		{"negative replica", Plan{Events: []Event{{At: 1, Kind: Crash, Replica: -1}}}, 4},
		{"negative time", *new(Plan).Crash(0, -1, -1), 4},
		{"nan time", Plan{Events: []Event{{At: math.NaN(), Kind: Crash}}}, 4},
		{"inf time", Plan{Events: []Event{{At: math.Inf(1), Kind: Crash}}}, 4},
		{"factor 1", *new(Plan).Straggle(0, 1, 2, 1.0), 4},
		{"factor nan", Plan{Events: []Event{{At: 1, Kind: SlowStart, Factor: math.NaN()}}}, 4},
		{"unknown kind", Plan{Events: []Event{{At: 1, Kind: Kind(99)}}}, 4},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(tc.reps); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.plan.Events)
		}
	}
	// Link events need no replica.
	if err := new(Plan).LinkFail(1, 2).Validate(1); err != nil {
		t.Errorf("link plan rejected: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Crash; k <= LinkUp; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("Kind %d has no name", int(k))
		}
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("crash:1@2+4, slow:0@1-3x2.5, link:2.5-3, drain:2@0.5, slow:3@4x2, link:9")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Plan{Events: []Event{
		{At: 2, Kind: Crash, Replica: 1},
		{At: 6, Kind: Recover, Replica: 1},
		{At: 1, Kind: SlowStart, Replica: 0, Factor: 2.5},
		{At: 3, Kind: SlowEnd, Replica: 0},
		{At: 2.5, Kind: LinkDown, Replica: -1},
		{At: 3, Kind: LinkUp, Replica: -1},
		{At: 0.5, Kind: Drain, Replica: 2},
		{At: 4, Kind: SlowStart, Replica: 3, Factor: 2},
		{At: 9, Kind: LinkDown, Replica: -1},
	}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("Parse mismatch:\n got %+v\nwant %+v", p.Events, want.Events)
	}
	if pp, err := Parse(""); err != nil || len(pp.Events) != 0 {
		t.Fatalf("empty spec: plan %+v, err %v", pp, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"boom:1@2", "crash:1", "crash:x@2", "crash:1@y",
		"slow:0@1-3", "slow:0@1-3xz", "slow:zero@1x2", "link:x-2", "crash",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestRandomPlanDeterministicAndValid(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := RandomPlan(seed, 4, 10)
		b := RandomPlan(seed, 4, 10)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: RandomPlan not deterministic", seed)
		}
		if err := a.Validate(4); err != nil {
			t.Fatalf("seed %d: RandomPlan invalid: %v", seed, err)
		}
	}
	if len(RandomPlan(1, 0, 10).Events) != 0 || len(RandomPlan(1, 4, 0).Events) != 0 {
		t.Error("degenerate fleet/horizon should yield empty plan")
	}
	// Across seeds the generator should exercise every fault kind.
	seen := map[Kind]bool{}
	for seed := int64(0); seed < 200; seed++ {
		for _, e := range RandomPlan(seed, 4, 10).Events {
			seen[e.Kind] = true
		}
	}
	for k := Crash; k <= LinkUp; k++ {
		if !seen[k] {
			t.Errorf("no seed in 0..199 produced a %s event", k)
		}
	}
}
