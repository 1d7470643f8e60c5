package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"semicont"
)

// fingerprint condenses one pass of a workload's results: exact totals
// a reader can compare at a glance, and a digest over every run's
// arrivals, accepted, rejected, migrations, delivered Mb and
// utilization bits, audited events, and sketch quantile bits.
type fingerprint struct {
	Runs          int     `json:"runs"`
	Arrivals      int64   `json:"arrivals"`
	Accepted      int64   `json:"accepted"`
	Rejected      int64   `json:"rejected"`
	Migrations    int64   `json:"migrations"`
	AuditedEvents int64   `json:"audited_events"`
	DeliveredMb   float64 `json:"delivered_mb"`
	Digest        string  `json:"digest"`
}

func fingerprintOf(results []*semicont.Result) fingerprint {
	h := sha256.New()
	var f fingerprint
	word := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, r := range results {
		f.Runs++
		f.Arrivals += r.Arrivals
		f.Accepted += r.Accepted
		f.Rejected += r.Rejected
		f.Migrations += r.Migrations
		f.AuditedEvents += r.AuditedEvents
		f.DeliveredMb += r.DeliveredMb
		word(uint64(r.Arrivals))
		word(uint64(r.Accepted))
		word(uint64(r.Rejected))
		word(uint64(r.Migrations))
		word(math.Float64bits(r.DeliveredMb))
		word(math.Float64bits(r.Utilization))
		word(uint64(r.AuditedEvents))
		if r.Dist != nil {
			for _, c := range r.Dist.Channels() {
				word(c.Sketch.N())
				for _, q := range []float64{0.5, 0.95, 0.99} {
					word(math.Float64bits(c.Sketch.Quantile(q)))
				}
				word(math.Float64bits(c.Sketch.Max()))
			}
		}
	}
	f.Digest = hex.EncodeToString(h.Sum(nil))
	return f
}

// fingerprintsJSON pins the default-seed fingerprint of every workload,
// keyed by workload name (":short" suffixed for the smoke-test mode).
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

// pinnedFingerprint returns the stored fingerprint for the workload in
// the given mode, if any.
func pinnedFingerprint(name string, short bool) (fingerprint, bool, error) {
	var pinned map[string]fingerprint
	if err := json.Unmarshal(fingerprintsJSON, &pinned); err != nil {
		return fingerprint{}, false, fmt.Errorf("fingerprints.json: %w", err)
	}
	if short {
		name += ":short"
	}
	f, ok := pinned[name]
	return f, ok, nil
}

// checkIdentities returns the accounting identity the result r of
// scenario sc violates: every one must hold for any seed. Audit
// violations surface earlier, as the run's error.
//
// Utilization divides the full size of every stream admitted before the
// horizon by bandwidth × horizon, and a stream admitted just before the
// horizon is delivered after it, so at a finite horizon the ratio may
// exceed 1 by up to the longest video's share of the horizon (the large
// system at full load reaches 1.008 at 3 h). The check allows exactly
// that edge; at the paper's 1000 h horizons it is 1.002.
func checkIdentities(sc semicont.Scenario, r *semicont.Result, wantArrivals bool) error {
	maxUtil := 1 + sc.System.MaxVideoLength/(sc.HorizonHours*3600)
	switch {
	case r.Accepted+r.Rejected > r.Arrivals:
		return fmt.Errorf("accepted %d + rejected %d > arrivals %d", r.Accepted, r.Rejected, r.Arrivals)
	case r.DeliveredMb > r.AcceptedMb*(1+1e-12):
		return fmt.Errorf("delivered %g Mb > accepted %g Mb", r.DeliveredMb, r.AcceptedMb)
	case !(r.Utilization >= 0 && r.Utilization <= maxUtil):
		return fmt.Errorf("utilization %g outside [0, %g]", r.Utilization, maxUtil)
	case wantArrivals && r.Arrivals == 0:
		return fmt.Errorf("no arrivals")
	case !wantArrivals && r.Arrivals != 0:
		return fmt.Errorf("set-up run saw %d arrivals", r.Arrivals)
	}
	return nil
}

// sameResult reports whether a and b agree field for field, sketches
// included.
func sameResult(a, b *semicont.Result) bool {
	x, y := *a, *b
	x.Dist, y.Dist = nil, nil
	return x == y && a.Dist.Equal(b.Dist)
}
