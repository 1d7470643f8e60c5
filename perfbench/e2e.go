package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"semicont"
	"semicont/internal/sweep"
)

// setupHours is the horizon of a set-up pass: it ends long before any
// workload's first arrival (a 200-server cluster at full load draws
// ~17 arrivals per second), so a run does set-up and nothing else.
const setupHours = 1e-12

// setupShare is the share of each measurement round spent on set-up
// passes.
const setupShare = 0.15

// runPublic runs one pass of the workload through the public API and
// returns every run's result in submission order.
func runPublic(w *workloadSpec, scs []semicont.Scenario, pool *sweep.Pool) ([]*semicont.Result, error) {
	if w.trials == 0 {
		results := make([]*semicont.Result, len(scs))
		for i, sc := range scs {
			r, err := semicont.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("scenario %d: %w", i, err)
			}
			results[i] = r
		}
		return results, nil
	}
	g := sweep.NewGrid[*semicont.Result](pool)
	for i, sc := range scs {
		if _, err := semicont.SubmitTrials(g, sc, w.trials); err != nil {
			_, _ = g.Wait() // let the submitted trials finish; the submit error is the one to report
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	cells, err := g.Wait()
	if err != nil {
		return nil, err
	}
	results := make([]*semicont.Result, 0, w.runs(scs))
	for i, sc := range scs {
		results = append(results, semicont.Summarize(sc, cells[i]).Results...)
	}
	return results, nil
}

// checkPass counts one pass over scs and checks its results. A pass
// that returned an error fails as a whole; otherwise each run that
// breaks an accounting identity fails on its own.
func (t *tally) checkPass(label string, w *workloadSpec, scs []semicont.Scenario, results []*semicont.Result, err error) bool {
	n := w.runs(scs)
	t.attempted += n
	if err != nil {
		t.fail(n, "%s: %v", label, err)
		return false
	}
	ok := true
	for i, r := range results {
		sc := scs[i/max(w.trials, 1)]
		if err := checkIdentities(sc, r, sc.HorizonHours != setupHours); err != nil {
			t.fail(1, "%s: run %d: %v", label, i, err)
			ok = false
		}
	}
	return ok
}

// checkPinned compares a default-seed fingerprint with the stored one.
// The fingerprint is printed on every seed, so two commits can be
// compared on seeds the file does not pin.
func (t *tally) checkPinned(w *workloadSpec, o options, fp fingerprint) error {
	if err := printJSON(t.out, "fingerprint", fp); err != nil {
		return err
	}
	if o.seed != defaultSeed {
		return nil
	}
	want, ok, err := pinnedFingerprint(w.name, o.short)
	switch {
	case err != nil:
		return err
	case !ok:
		t.fail(fp.Runs, "no pinned fingerprint for %s", w.name)
	case fp != want:
		t.fail(fp.Runs, "fingerprint differs from fingerprints.json: got %+v, want %+v", fp, want)
	}
	return nil
}

// measureEndToEnd reports the end-to-end metrics: the median wall time
// of repeated untraced passes, simulated arrivals per host second, the
// median over rounds of the mean set-up pass, and the process's peak
// resident set over the first pass. Every measured pass is followed by
// set-up passes filling setupShare of the round, so both medians sample
// the same stretch of host time: on a shared host, speed drifts over
// tens of seconds. The short mode makes one pass of each.
func measureEndToEnd(w *workloadSpec, o options, scs []semicont.Scenario, t *tally) (map[string]metric, error) {
	pool := sweep.New(poolWorkers)
	setup := withHorizon(scs, setupHours)
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))

	// setupWalls holds each round's mean set-up pass: a few hundred
	// microsecond-scale passes per round, so every sample carries its
	// share of the garbage collection they cause.
	var walls, setupWalls []float64
	var setupPasses int
	var first fingerprint
	var rss float64
	var round time.Duration
	more := func() bool {
		if o.short {
			return len(walls) == 0
		}
		return len(walls) < 3 || time.Since(start)+round < budget
	}
	for more() {
		r0 := time.Now()
		runtime.GC()
		t0 := time.Now()
		res, err := runPublic(w, scs, pool)
		wall := time.Since(t0)
		walls = append(walls, wall.Seconds())
		t.checkPass("run", w, scs, res, err)
		if err == nil {
			fp := fingerprintOf(res)
			if len(walls) == 1 {
				first, rss = fp, peakRSSMb()
				if err := t.checkPinned(w, o, fp); err != nil {
					return nil, err
				}
			} else if fp != first {
				t.fail(len(res), "pass %d differs from pass 1: %+v vs %+v", len(walls), fp, first)
			}
		}

		s0 := time.Now()
		setupEnd := s0.Add(time.Duration(float64(wall) * setupShare / (1 - setupShare)))
		n := 0
		for n == 0 || !o.short && time.Now().Before(setupEnd) {
			res, err := runPublic(w, setup, pool)
			t.checkPass("set-up", w, setup, res, err)
			n++
		}
		setupWalls = append(setupWalls, time.Since(s0).Seconds()/float64(n))
		setupPasses += n
		round = time.Since(r0)
	}
	fmt.Fprintf(t.out, "passes %d measured %.4g s, %d set-up\n", len(walls), walls, setupPasses)

	wall := median(walls)
	ms := map[string]metric{
		"wall_s":      {wall, "s"},
		"setup_s":     {median(setupWalls), "s"},
		"req_per_s":   {0, "1/s"},
		"peak_rss_mb": {rss, "MB"},
	}
	if wall > 0 {
		ms["req_per_s"] = metric{float64(first.Arrivals) / wall, "1/s"}
	}
	return ms, nil
}

// withHorizon returns copies of scs with the given horizon.
func withHorizon(scs []semicont.Scenario, hours float64) []semicont.Scenario {
	out := slices.Clone(scs)
	for i := range out {
		out[i].HorizonHours = hours
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMb returns the process's peak resident set in MB: VmHWM,
// which starts afresh at exec. (getrusage's ru_maxrss carries over the
// peak of whatever the process was before exec, such as the shell of
// run.sh.)
func peakRSSMb() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
