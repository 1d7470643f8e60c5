package main

import (
	"fmt"

	"semicont"
	"semicont/internal/faults"
)

// defaultSeed is the seed whose results fingerprints.json pins.
const defaultSeed = 1

// poolWorkers is the sweep pool size of the trial workloads, fixed so
// every host runs the same load. It is one: on a 2-thread host, the CPU
// time of a pass on two workers ranged over 40% from pass to pass (each
// worker slowed with what ran on the other hardware thread), against
// 15% on one. One worker still takes every trial through the pool.
const poolWorkers = 1

// priorStudiesTheta is the Zipf skew of the prior studies the paper
// compares against (internal/experiments.PriorStudiesTheta).
const priorStudiesTheta = 0.271

// A workload is one fixed set of scenarios. Single-run workloads
// (trials == 0) call semicont.Run once per scenario on the calling
// goroutine; trial workloads submit trials runs of every scenario to
// one sweep pool of poolWorkers. Scenario.Shards stays unset
// everywhere, so the engine runs serially within each run.
type workloadSpec struct {
	name string
	// hours is the simulated horizon of a measured run; shortHours the
	// horizon of the smoke-test mode, long enough that the short runs
	// migrate, and on scale-drm and paper-figs also reject, so the
	// tests cover the DRM and rejection paths of the traced run.
	hours, shortHours float64
	trials            int
	scenarios         func(seed uint64, hours float64) []semicont.Scenario
}

var workloads = []*workloadSpec{
	{name: "scale-drm", hours: 6, shortHours: 0.25, scenarios: scaleDRM},
	{name: "paper-figs", hours: 1.5, shortHours: 0.5, trials: 2, scenarios: paperFigs},
	{name: "audited-churn", hours: 8, shortHours: 1, scenarios: auditedChurn},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// horizon returns the workload's simulated hours in the given mode.
func (w *workloadSpec) horizon(short bool) float64 {
	if short {
		return w.shortHours
	}
	return w.hours
}

// runs returns how many simulation runs one pass over scs makes.
func (w *workloadSpec) runs(scs []semicont.Scenario) int {
	return len(scs) * max(w.trials, 1)
}

// scaleDRM is the 200-server profile cell: P4 (even placement, DRM with
// one hop and chain length one, 20% staging) at 90% load.
func scaleDRM(seed uint64, hours float64) []semicont.Scenario {
	return []semicont.Scenario{{
		System: semicont.ScaleSystem(200),
		Policy: semicont.Policy{
			Name:        "P4",
			Placement:   semicont.EvenPlacement,
			Migration:   true,
			MaxHops:     1,
			MaxChain:    1,
			StagingFrac: 0.2,
		},
		Theta:        priorStudiesTheta,
		HorizonHours: hours,
		LoadFactor:   0.9,
		Seed:         seed,
		Stats:        true,
	}}
}

// paperThetas is the θ grid of the paper's figures, −1.5 … 1 in steps
// of 0.25.
func paperThetas() []float64 {
	var ts []float64
	for i := 0; i <= 10; i++ {
		ts = append(ts, -1.5+0.25*float64(i))
	}
	return ts
}

// paperFigs is the cell grid of Figures 4, 5 and 7 on the small and
// large systems, built from the public policy fields the way
// internal/experiments builds them. Unlike the experiment sweeps, every
// cell draws from a seed of its own, derived from seed: with one shared
// seed every cell drew the same catalogue, and the arrivals of a pass
// (of 1 h trials) ranged over 16% across ten seeds, and its wall time
// with them.
func paperFigs(seed uint64, hours float64) []semicont.Scenario {
	var pols []semicont.Policy
	// Figure 4: no migration, hops = 1, unlimited hops.
	pols = append(pols,
		semicont.Policy{Name: "no-migration", Placement: semicont.EvenPlacement},
		semicont.Policy{Name: "hops=1", Placement: semicont.EvenPlacement, Migration: true, MaxHops: 1},
		semicont.Policy{Name: "hops=unlimited", Placement: semicont.EvenPlacement, Migration: true, MaxHops: semicont.UnlimitedHops},
	)
	// Figure 5: staging buffers of 0, 2, 20 and 100% of the mean object.
	for _, frac := range []float64{0, 0.02, 0.2, 1} {
		pols = append(pols, semicont.Policy{
			Name:        fmt.Sprintf("%g%% buffer", frac*100),
			Placement:   semicont.EvenPlacement,
			StagingFrac: frac,
			ReceiveCap:  semicont.DefaultReceiveCap,
		})
	}
	// Figure 7: P1–P8.
	pols = append(pols, semicont.PaperPolicies()...)

	var scs []semicont.Scenario
	for _, sys := range []semicont.System{semicont.SmallSystem(), semicont.LargeSystem()} {
		for _, pol := range pols {
			for _, theta := range paperThetas() {
				scs = append(scs, semicont.Scenario{
					System:       sys,
					Policy:       pol,
					Theta:        theta,
					HorizonHours: hours,
				})
			}
		}
	}
	for i := range scs {
		scs[i].Seed = seed*uint64(len(scs)) + uint64(i)
	}
	return scs
}

// auditedChurn is the large system under failures, brownouts, the
// retry queue, degraded playback and a batching edge tier, with every
// event audited.
func auditedChurn(seed uint64, hours float64) []semicont.Scenario {
	return []semicont.Scenario{{
		System: semicont.LargeSystem(),
		Policy: semicont.Policy{
			Name:             "churn",
			Placement:        semicont.EvenPlacement,
			Migration:        true,
			StagingFrac:      0.2,
			RetryQueue:       true,
			DegradedPlayback: true,
			// Parked streams retry every 30 s, not every 5 s: the park
			// ticks scale with how many streams a random failure parks,
			// and at 5 s they doubled the work of unlucky seeds.
			DegradedRetrySec: 30,
			EdgeNodes:        2,
			EdgePrefixSec:    600,
			// Room for the 600 s prefixes of the 20 most popular titles
			// per node, so both edge hits and misses occur.
			EdgeCacheMb:    20 * 600 * 3,
			BatchPolicy:    semicont.BatchPolicyBatchPrefix,
			BatchWindowSec: 120,
		},
		Theta:        priorStudiesTheta,
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
		Stats: true,
	}}
}
