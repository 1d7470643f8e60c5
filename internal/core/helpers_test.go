package core

import (
	"fmt"
	"math"
	"testing"

	"semicont/internal/catalog"
	"semicont/internal/placement"
	"semicont/internal/rng"
	"semicont/internal/workload"
)

// scriptSource replays a fixed list of requests, then reports +Inf so
// the engine schedules nothing further.
type scriptSource struct {
	reqs []workload.Request
	i    int
}

func (s *scriptSource) Next() workload.Request {
	if s.i < len(s.reqs) {
		r := s.reqs[s.i]
		s.i++
		return r
	}
	return workload.Request{Arrival: math.Inf(1)}
}

// fixedCatalog builds n videos of identical length (seconds) at 3 Mb/s.
func fixedCatalog(t *testing.T, n int, lengthSec float64) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: n, MinLength: lengthSec, MaxLength: lengthSec, ViewRate: 3, Theta: 1,
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// manualLayout wraps placement.Manual with test fatals.
func manualLayout(t *testing.T, cat *catalog.Catalog, holders [][]int, numServers int) *placement.Layout {
	t.Helper()
	lay, err := placement.Manual(cat, holders, numServers)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// newTestEngine builds an engine over fixed-length videos with an
// explicit layout and scripted arrivals. The test auditor is attached.
func newTestEngine(t *testing.T, cfg Config, cat *catalog.Catalog, holders [][]int, reqs []workload.Request) *Engine {
	t.Helper()
	lay := manualLayout(t, cat, holders, len(cfg.ServerBandwidth))
	e, err := NewEngine(cfg, cat, lay, &scriptSource{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	attachTestAuditor(t, e)
	return e
}

// NewTestAuditor returns the invariant auditor that this package's
// test engines run under. internal/audit imports this package, so
// the external test package sets it (audit_hook_test.go).
var NewTestAuditor func() AuditTap

// attachTestAuditor attaches the test auditor, wrapped in the lane
// checks, to e. At cleanup the test fails on any audit violation the
// run recorded, unless the test replaced the tap.
func attachTestAuditor(t testing.TB, e *Engine) {
	tap := &laneCheckTap{AuditTap: NewTestAuditor(), e: e}
	e.SetAuditTap(tap)
	t.Cleanup(func() {
		if e.audit != AuditTap(tap) {
			return
		}
		if err := e.AuditErr(); err != nil {
			t.Errorf("audit: %v", err)
		}
	})
}

// laneCheckTap runs the lane-structure assertions no audit rule covers
// after every event, then hands the record to the auditor: each lane
// slice holds one entry per active stream, each request's slot is its
// index, and every mirror column (size, the view state, bufCap, pinned,
// video, hops) equals the request field it mirrors.
type laneCheckTap struct {
	AuditTap
	e *Engine
}

func (l *laneCheckTap) Event(rec AuditEventRecord) error {
	for _, s := range l.e.servers {
		if s.failed {
			continue
		}
		ln := &s.ln
		n := len(s.active)
		for _, m := range [...]int{
			len(ln.rate), len(ln.sent), len(ln.last), len(ln.susp), len(ln.size), len(ln.wake),
			len(ln.viewOff), len(ln.viewSync), len(ln.paused), len(ln.bufCap), len(ln.pinned),
			len(ln.video), len(ln.hops),
		} {
			if m != n {
				return fmt.Errorf("core: server %d lane arrays out of step with %d active streams", s.id, n)
			}
		}
		for i, r := range s.active {
			if int(r.slot) != i {
				return fmt.Errorf("core: server %d slot index corrupt for request %d", s.id, r.id)
			}
			if col := laneMismatch(ln, i, r); col != "" {
				return fmt.Errorf("core: request %d lane %s differs from the request", r.id, col)
			}
		}
	}
	return l.AuditTap.Event(rec)
}

// laneMismatch names the first mirror column of slot i that differs
// from request r's field, or returns "".
func laneMismatch(ln *lane, i int, r *request) string {
	switch {
	case ln.size[i] != r.size:
		return "size"
	case ln.viewOff[i] != r.viewOffset:
		return "view offset"
	case ln.viewSync[i] != r.viewSyncT:
		return "view sync"
	case ln.paused[i] != r.pausedView:
		return "paused"
	case ln.bufCap[i] != r.bufCap:
		return "bufCap"
	case ln.pinned[i] != (r.isPatch || r.taps > 0):
		return "pinned"
	case ln.video[i] != r.video:
		return "video"
	case ln.hops[i] != r.hops:
		return "hops"
	}
	return ""
}

// run drives the engine to completion with the given horizon and
// returns the metrics.
func run(t *testing.T, e *Engine, horizon float64) *Metrics {
	t.Helper()
	m, err := e.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
