package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"semicont"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestShortMode runs every workload untraced and traced at tiny
// horizons: no run may fail (the traced run must reproduce the untraced
// results, the pinned short fingerprints must match), and every metric
// BENCHMARK.json names must be reported and printed with its unit.
func TestShortMode(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark has %v", got, workloadNames())
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bj.EndToEnd, bj.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				rep, err := run(options{
					workload: w.name,
					seed:     defaultSeed,
					seconds:  1,
					trace:    trace,
					short:    true,
					out:      t.TempDir(),
				}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("correct=%v, %d of %d runs failed:\n%s", rep.Correct, rep.Failed, rep.Attempted, out.String())
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: reported %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
						continue
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
					if !line.MatchString(out.String()) {
						t.Errorf("metric %s not printed with its unit", m.Name)
					}
				}
				if !strings.Contains(out.String(), "failed_frac 0 ") {
					t.Errorf("failed_frac not printed as 0:\n%s", out.String())
				}
			})
		}
	}
}

// TestShortModeSaturates keeps the short horizons long enough that the
// fidelity check of TestShortMode covers the traced run's DRM settings
// and its rejection path: the pinned short fingerprints must show
// migrations everywhere and rejections where the full runs reject.
func TestShortModeSaturates(t *testing.T) {
	for _, w := range workloads {
		full, ok, err := pinnedFingerprint(w.name, false)
		if err != nil || !ok {
			t.Fatalf("%s: no pinned fingerprint (%v)", w.name, err)
		}
		short, ok, err := pinnedFingerprint(w.name, true)
		if err != nil || !ok {
			t.Fatalf("%s: no pinned short fingerprint (%v)", w.name, err)
		}
		if short.Migrations == 0 {
			t.Errorf("%s: short mode makes no migration", w.name)
		}
		if full.Rejected > 0 && short.Rejected == 0 {
			t.Errorf("%s: short mode rejects nothing, the full run rejects %d", w.name, full.Rejected)
		}
	}
}

// TestSameResultSeesEveryField guards the fidelity check: a traced run
// differing in any field, sketches included, must count as failed.
func TestSameResultSeesEveryField(t *testing.T) {
	sc := scaleDRM(defaultSeed, 0.02)[0]
	a, err := semicont.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := semicont.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(a, b) {
		t.Fatal("two runs of one scenario differ")
	}
	c := *b
	c.PlacedCopies++
	if sameResult(a, &c) {
		t.Error("a changed scalar field went unnoticed")
	}
	c = *b
	c.Dist = new(semicont.DistStats)
	if sameResult(a, &c) {
		t.Error("changed sketches went unnoticed")
	}
}

func TestTraceableRejectsUnmirroredFields(t *testing.T) {
	sc := auditedChurn(defaultSeed, 1)[0]
	if err := traceable(sc); err != nil {
		t.Fatalf("workload scenario rejected: %v", err)
	}
	sc.Shards = 2
	if traceable(sc) == nil {
		t.Error("Shards accepted")
	}
	sc = auditedChurn(defaultSeed, 1)[0]
	sc.Policy.Replicate = true
	if traceable(sc) == nil {
		t.Error("Replicate accepted")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"semicont/internal/core.(*Engine).Step": "semicont/internal/core",
		"semicont.Run":                          "semicont",
		"semicont/internal/simtime.(*Queue[go.shape.struct {}]).Pop": "semicont/internal/simtime",
		"runtime.mallocgc": "runtime",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := funcName("semicont/internal/core.(*Engine).handleArrival.func1"); got != "handleArrival" {
		t.Errorf("funcName = %q", got)
	}
}
