package semicont

import (
	"errors"
	"testing"

	"semicont/internal/audit"
	"semicont/internal/core"
	"semicont/internal/faults"
)

// withAuditHook applies hook to the engine of every audited run until
// the test ends.
func withAuditHook(t *testing.T, hook func(*core.Engine)) {
	t.Helper()
	auditTestHook = hook
	t.Cleanup(func() { auditTestHook = nil })
}

// verifyDirty switches on the engine's audit dirty-set completeness
// check.
func verifyDirty(e *core.Engine) { e.DebugVerifyAuditDirty(true) }

// churnScenario is the large system under failures, brownouts, the
// retry queue, degraded playback and a batching edge tier, audited at
// every event: the perfbench audited-churn cell.
func churnScenario(seed uint64, hours float64) Scenario {
	return Scenario{
		System: LargeSystem(),
		Policy: Policy{
			Name:             "churn",
			Placement:        EvenPlacement,
			Migration:        true,
			StagingFrac:      0.2,
			RetryQueue:       true,
			DegradedPlayback: true,
			DegradedRetrySec: 30,
			EdgeNodes:        2,
			EdgePrefixSec:    600,
			EdgeCacheMb:      20 * 600 * 3,
			BatchPolicy:      BatchPolicyBatchPrefix,
			BatchWindowSec:   120,
		},
		Theta:        0.271,
		HorizonHours: hours,
		LoadFactor:   0.95,
		Seed:         seed,
		Faults: faults.Config{
			MTBFHours:         20,
			MTTRHours:         1,
			BrownoutMTBFHours: 10,
			BrownoutMTTRHours: 1,
			BrownoutFraction:  0.5,
		},
		Audit: true,
	}
}

// TestAuditDirtySetChurn runs the completeness check on the fault-,
// brownout- and edge-heavy churn cell at five seeds.
func TestAuditDirtySetChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("five large-system runs")
	}
	withAuditHook(t, verifyDirty)
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := Run(churnScenario(seed, 1))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failures+res.Brownouts == 0 || res.EdgeHits == 0 {
			t.Errorf("seed %d: no fault or edge traffic (failures %d, brownouts %d, edge hits %d)",
				seed, res.Failures, res.Brownouts, res.EdgeHits)
		}
	}
}

// TestAuditDirtySetSampled pins the sampled snapshot: marks left by
// skipped events carry over to the next record, so the completeness
// check stays clean, and both snapshot-level and tap-level sabotage is
// still caught.
func TestAuditDirtySetSampled(t *testing.T) {
	sc := churnScenario(1, 1)
	sc.AuditSample = 7

	withAuditHook(t, verifyDirty)
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("sampled completeness check: %v", err)
	}
	if res.AuditedEvents == 0 {
		t.Fatal("sampled run audited no events")
	}

	for _, c := range []struct {
		rule string
		hook func(*core.Engine)
	}{
		{"wake-exact", func(e *core.Engine) { e.DebugSkewWakeIndex(true) }},
		{"eftf-order", func(e *core.Engine) { e.DebugForceSpareMisorder(true) }},
	} {
		withAuditHook(t, c.hook)
		_, err := Run(sc)
		var v *audit.Violation
		if !errors.As(err, &v) || v.Rule != c.rule {
			t.Errorf("sampled audit with %s sabotage: got %v, want a %s violation", c.rule, err, c.rule)
		}
	}
}
