package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// nopTap is an audit tap that accepts everything: it makes the engine
// build its snapshots without checking them.
type nopTap struct{}

func (nopTap) Begin(AuditBegin) error                                           { return nil }
func (nopTap) BeginEvent(uint64, float64, AuditEventKind, int32, int64) error   { return nil }
func (nopTap) Event(AuditEventRecord) error                                     { return nil }
func (nopTap) SpareOrder(float64, int32, SpareDiscipline, []SpareGrant) error   { return nil }
func (nopTap) IntermittentOrder(float64, int32, []IntermittentGrant) error      { return nil }
func (nopTap) Admission(float64, int32, int32, bool, bool) error                { return nil }
func (nopTap) Migration(float64, int64, int32, int32, int32, int32, bool) error { return nil }
func (nopTap) Failure(float64, int32, int, int, int) error                      { return nil }
func (nopTap) Recovery(float64, int32, bool) error                              { return nil }
func (nopTap) Brownout(float64, int32, float64, int, int, int) error            { return nil }
func (nopTap) BrownoutEnd(float64, int32) error                                 { return nil }
func (nopTap) Shed(float64, int32, int32, float64, float64) error               { return nil }
func (nopTap) EdgeServe(float64, int32, float64, float64, float64, float64, float64, bool) error {
	return nil
}
func (nopTap) Chain(float64, int) error                                { return nil }
func (nopTap) Replication(float64, int32, int32, int32, float64) error { return nil }
func (nopTap) End(float64, Metrics) error                              { return nil }

// recordTap keeps the ID lists of the records it receives.
type recordTap struct {
	nopTap
	ids [][]int32
}

func (r *recordTap) Event(rec AuditEventRecord) error {
	ids := make([]int32, len(rec.Servers))
	for i := range rec.Servers {
		ids[i] = rec.Servers[i].ID
	}
	r.ids = append(r.ids, ids)
	return nil
}

// TestAuditRecordDeliversDirtyServers pins the record's shape: the
// first record delivers every server, later ones only the servers
// marked since, in ascending ID order, and delivering clears the marks.
func TestAuditRecordDeliversDirtyServers(t *testing.T) {
	e, _ := buildKitchenSink(t, 3)
	tap := &recordTap{}
	e.SetAuditTap(tap)
	if _, err := e.Run(1800); err != nil {
		t.Fatal(err)
	}
	if len(tap.ids) < 2 {
		t.Fatalf("%d records", len(tap.ids))
	}
	if got, want := len(tap.ids[0]), len(e.servers); got != want {
		t.Errorf("first record delivers %d servers, want all %d", got, want)
	}
	partial := 0
	for n, ids := range tap.ids {
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("record %d: server IDs %v not ascending", n, ids)
			}
		}
		if len(ids) < len(e.servers) {
			partial++
		}
	}
	if partial == 0 {
		t.Error("every record delivered every server")
	}
	for _, s := range e.servers {
		if s.auditDirty && !s.failed {
			// The drain's last event was recorded; nothing may stay marked.
			t.Errorf("server %d still marked after the last record", s.id)
		}
	}
}

// TestAuditDirtyCheckCatchesDroppedMark is the completeness check's
// own sabotage test: a sync whose dirty mark is dropped changes a
// server's snapshot entry behind the auditor's back, and the check must
// fail the run once an event leaves that server unmarked. Between
// steps, the sabotage syncs one loaded server that lags the clock and
// clears the mark the sync set.
func TestAuditDirtyCheckCatchesDroppedMark(t *testing.T) {
	for _, sabotage := range []bool{false, true} {
		e, _ := buildKitchenSink(t, 3)
		e.SetAuditTap(nopTap{})
		e.DebugVerifyAuditDirty(true)
		if err := e.Start(1800); err != nil {
			t.Fatal(err)
		}
		dropped := 0
		for e.Step() {
			if !sabotage {
				continue
			}
			for _, s := range e.servers {
				if len(s.active) > 0 && s.ln.rate[0] > 0 && s.ln.last[0] < e.now {
					s.syncAll(e.now)
					s.auditDirty = false
					dropped++
					break
				}
			}
		}
		err := e.AuditErr()
		switch {
		case !sabotage && err != nil:
			t.Fatalf("honest run flagged: %v", err)
		case sabotage && dropped == 0:
			t.Fatal("no server to sabotage")
		case sabotage && (err == nil || !strings.Contains(err.Error(), "dirty set incomplete")):
			t.Fatalf("%d dropped marks not caught: %v", dropped, err)
		}
	}
}

// TestLaneCheckTapCatchesCorruption is the sabotage test of the lane
// checks the test auditor runs: each kind of lane corruption, made
// between steps on a loaded server, must fail the run with its message.
func TestLaneCheckTapCatchesCorruption(t *testing.T) {
	sabotage := map[string]func(s *server){
		"":                        func(*server) {},
		"lane size":               func(s *server) { s.ln.size[0]++ },
		"slot index corrupt":      func(s *server) { s.active[0].slot = 1 },
		"lane arrays out of step": func(s *server) { s.ln.wake = append(s.ln.wake, 0) },
		"lane view offset":        func(s *server) { s.ln.viewOff[0]++ },
		"lane view sync":          func(s *server) { s.ln.viewSync[0]-- },
		"lane paused":             func(s *server) { s.ln.paused[0] = !s.ln.paused[0] },
		"lane bufCap":             func(s *server) { s.ln.bufCap[0]++ },
		"lane pinned":             func(s *server) { s.ln.pinned[0] = !s.ln.pinned[0] },
		"lane video":              func(s *server) { s.ln.video[0]++ },
		"lane hops":               func(s *server) { s.ln.hops[0]++ },
	}
	for want, corrupt := range sabotage {
		e, _ := buildKitchenSink(t, 3)
		e.SetAuditTap(&laneCheckTap{AuditTap: nopTap{}, e: e})
		if err := e.Start(1800); err != nil {
			t.Fatal(err)
		}
		done := false
		for e.Step() {
			for _, s := range e.servers {
				if !done && len(s.active) > 1 {
					corrupt(s)
					done = true
				}
			}
		}
		err := e.AuditErr()
		switch {
		case !done:
			t.Fatal("no loaded server to corrupt")
		case want == "" && err != nil:
			t.Fatalf("honest run flagged: %v", err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: corruption not caught: %v", want, err)
		}
	}
}

// TestSameAuditStateCoversEveryField changes each leaf field of a
// snapshot entry in turn, found by reflection, and demands that the
// completeness check's comparator sees it: a field the comparator
// skipped would let a missed mark go unnoticed. Floats change only in
// the sign of zero, which == cannot see but a bit comparison can.
func TestSameAuditStateCoversEveryField(t *testing.T) {
	entry := func() AuditServerState {
		return AuditServerState{Requests: make([]AuditRequestState, 1), Copies: make([]AuditCopyState, 1)}
	}
	a, b := entry(), entry()
	if !sameAuditState(&a, &b) {
		t.Fatal("identical entries compare unequal")
	}
	var leaves [][]int
	var walk func(v reflect.Value, path []int)
	walk = func(v reflect.Value, path []int) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i), append(path[:len(path):len(path)], i))
			}
		case reflect.Slice:
			for i := range v.Len() {
				walk(v.Index(i), append(path[:len(path):len(path)], i))
			}
		default:
			leaves = append(leaves, path)
		}
	}
	walk(reflect.ValueOf(a), nil)
	for _, path := range leaves {
		b := entry()
		v, name := reflect.ValueOf(&b).Elem(), "AuditServerState"
		for _, i := range path {
			if v.Kind() == reflect.Struct {
				name += "." + v.Type().Field(i).Name
				v = v.Field(i)
			} else {
				v = v.Index(i)
			}
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int32, reflect.Int64:
			v.SetInt(1)
		case reflect.Float64:
			v.SetFloat(math.Copysign(0, -1))
		default:
			t.Fatalf("%s: kind %s not covered by this test", name, v.Kind())
		}
		if sameAuditState(&a, &b) {
			t.Errorf("%s: a changed field compares equal", name)
		}
	}
	b.Requests = append(b.Requests, AuditRequestState{})
	if sameAuditState(&a, &b) {
		t.Error("an extra request compares equal")
	}
}
