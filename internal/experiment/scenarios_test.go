package experiment

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

// The scenario-matrix tests run in -short mode on purpose: CI executes
// `go test -race -short ./internal/experiment -run Scenario` so every PR
// exercises compound-fault recovery under the race detector. The matrix
// uses scheduler-tolerant test timings (not the compressed paper
// calibration), so it is robust to the race detector's slowdown.

func TestScenarioSpecsShape(t *testing.T) {
	c := ScenarioMatrixConfig{}.WithDefaults()
	specs := c.Specs()
	if len(specs) < 8 {
		t.Fatalf("matrix too small: %d specs", len(specs))
	}
	names := make(map[string]bool)
	var kinds [4]bool
	var triggers [4]bool
	expectUnrecoverable := 0
	for _, s := range specs {
		if names[s.Scenario.Name] {
			t.Fatalf("duplicate scenario %q", s.Scenario.Name)
		}
		names[s.Scenario.Name] = true
		for _, e := range s.Scenario.Events {
			kinds[e.Kind] = true
			triggers[e.Trigger.Kind] = true
		}
		if s.Expect == OutcomeUnrecoverable {
			expectUnrecoverable++
		}
	}
	for k, seen := range kinds {
		if !seen {
			t.Fatalf("fault kind %v never exercised", cluster.FaultKind(k))
		}
	}
	for k, seen := range triggers {
		if !seen {
			t.Fatalf("trigger kind %v never exercised", cluster.TriggerKind(k))
		}
	}
	if expectUnrecoverable == 0 {
		t.Fatal("the matrix must include a crisp-abort scenario")
	}
}

func TestScenarioMatrixEndToEnd(t *testing.T) {
	res, err := RunScenarioMatrix(ScenarioMatrixConfig{})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]ScenarioResult)
	for _, row := range res.Rows {
		byName[row.Spec.Scenario.Name] = row
		if row.Outcome != row.Spec.Expect {
			t.Errorf("%s: outcome %v, want %v (%s)",
				row.Spec.Scenario.Name, row.Outcome, row.Spec.Expect, row.Detail)
		}
		if len(row.Unfired) > 0 {
			t.Errorf("%s: events never fired: %v", row.Spec.Scenario.Name, row.Unfired)
		}
	}
	if t.Failed() {
		t.Log("\n" + res.Render())
		t.FailNow()
	}

	if row := byName["baseline"]; row.Recoveries != 0 {
		t.Errorf("baseline saw %d recoveries", row.Recoveries)
	}
	// The compound scenario must actually have restarted an in-flight
	// epoch (a second acknowledgment while rebuilding/restoring) and run
	// at least two epochs.
	if row := byName["kill during recovery epoch 1"]; row.Recoveries < 2 || row.EpochRestarts == 0 {
		t.Errorf("compound scenario: recoveries=%d restarts=%d, want >=2 and >=1",
			row.Recoveries, row.EpochRestarts)
	}
	// A partitioned rank is the detector's to judge, with its retry budget:
	// the survivors' successor pings cross the downed links, time out and
	// nudge nobody, and the one recovery is the scan's.
	if row := byName["network drop"]; row.ProbeNacks != 0 || row.Recoveries != 1 {
		t.Errorf("network drop: ft.probe.nacks=%d recoveries=%d, want 0 and 1", row.ProbeNacks, row.Recoveries)
	}
	// Whole-node loss: the rescue cannot have used a local copy only —
	// some restore came from another node's replica (or the PFS).
	if row := byName["whole node down"]; row.RestoreNeighbor+row.RestoreRemote+row.RestorePFS == 0 {
		t.Errorf("node-down scenario restored from local stores only: %+v", row)
	}
	// Double node loss: the PFS fallback must have served a restore
	// (spec-enforced, but assert explicitly for the regression).
	if row := byName["node + replica node down"]; row.RestorePFS == 0 {
		t.Errorf("double-node-down scenario never restored from the PFS")
	}
	// Recovery scenarios must have recorded where recovery time went.
	if row := byName["single kill -9"]; row.RebuildNS == 0 || row.RestoreNS == 0 {
		t.Errorf("recovery phase durations missing: %+v", row)
	}
	// Mid-repair kills: both rows must have restarted the interrupted
	// epoch — the second kill lands while epoch 1 is in flight.
	for _, name := range []string{"kill during another rank's repair", "kill a repair-set member"} {
		row := byName[name]
		if row.Recoveries < 2 || row.EpochRestarts == 0 {
			t.Errorf("%s: recoveries=%d restarts=%d, want >=2 and >=1",
				name, row.Recoveries, row.EpochRestarts)
		}
	}

	out := res.Render()
	for _, want := range []string{"scenario", "rebuild[ms]", "spares exhausted", "unrecoverable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
