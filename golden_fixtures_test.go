package semicont

import (
	"encoding/json"
	"os"
	"testing"
)

// Golden-fixture plumbing for TestGoldenEquivalence, which pins the
// engine to the checked-in results byte for byte.

const goldenEquivPath = "testdata/golden_equiv.json"

type goldenEntry struct {
	Name   string
	Result Result
}

// loadGoldenFixtures reads and decodes the checked-in fixture file.
// JSON float encoding uses the shortest round-trippable representation,
// so decoded fixtures compare exactly with ==.
func loadGoldenFixtures(t testing.TB) []goldenEntry {
	t.Helper()
	data, err := os.ReadFile(goldenEquivPath)
	if err != nil {
		t.Fatalf("read fixtures (run with -update-golden to create): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// matchGolden demands that a run's Result equals its fixture
// bit-for-bit; label names the run's cell in the failure.
func matchGolden(t testing.TB, label string, got, want Result) {
	t.Helper()
	if got != want {
		t.Errorf("%s: result diverged from fixture\n got %+v\nwant %+v", label, got, want)
	}
}
