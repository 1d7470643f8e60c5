package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// foldProfile decodes a runtime/pprof CPU profile and folds its samples
// into profLayers, weighted by CPU time. It returns each layer's share
// and the sample count.
//
// A sample is gc when any frame belongs to the garbage collector.
// Otherwise its deepest simulator frame names the layer, by package and
// file (see layerOf); runtime, standard-library, rng and benchmark
// frames are skipped on the way up. A sample with no simulator frame,
// or whose frame no rule names, is other: a rename that breaks the
// folding shows up there.
func foldProfile(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	weights := map[string]int64{}
	var total, samples int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		var frames []frame
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				f := p.functions[fid]
				frames = append(frames, frame{p.str(f.name), p.str(f.file)})
			}
		}
		weights[sampleLayer(frames)] += v
		total += v
		samples++
	}
	shares := map[string]float64{}
	for l, v := range weights {
		if total > 0 {
			shares[l] = float64(v) / float64(total)
		}
	}
	return shares, samples, nil
}

type frame struct{ fn, file string }

// gcPrefixes mark runtime functions of the garbage collector.
var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.wbBufFlush",
}

func sampleLayer(frames []frame) string {
	for _, f := range frames {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(f.fn, p) {
				return "gc"
			}
		}
	}
	for _, f := range frames { // leaf first
		pkg := funcPackage(f.fn)
		if (pkg != "semicont" && !strings.HasPrefix(pkg, "semicont/")) ||
			pkg == "semicont/perfbench" || pkg == "semicont/internal/rng" {
			continue
		}
		return layerOf(pkg, path.Base(f.file), funcName(f.fn))
	}
	return "other"
}

// funcPackage returns the import path of a pprof function name such as
// "semicont/internal/core.(*Engine).Step".
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// funcName returns the bare function or method name: "Step" for
// "semicont/internal/core.(*Engine).Step", "handleArrival" for an
// inlined "….handleArrival.func1" closure.
func funcName(fn string) string {
	name := fn[len(funcPackage(fn))+1:]
	if i := strings.LastIndex(name, ")."); i >= 0 {
		name = name[i+2:]
	}
	name, _, _ = strings.Cut(name, ".")
	return name
}

// coreFiles maps internal/core source files to layers.
var coreFiles = map[string]string{
	"alloc_eftf.go":           "allocate",
	"alloc_evensplit.go":      "allocate",
	"alloc_intermittent.go":   "allocate",
	"alloc_lftf.go":           "allocate",
	"alloc_minflow.go":        "allocate",
	"allocator.go":            "allocate",
	"spare.go":                "allocate",
	"server.go":               "allocate",
	"lane.go":                 "allocate",
	"request.go":              "allocate",
	"wake.go":                 "wake",
	"controller.go":           "select",
	"controller_selectors.go": "select",
	"overload.go":             "select",
	"faulttol.go":             "select",
	"brownout.go":             "select",
	"replication.go":          "select",
	"controller_planners.go":  "plan",
	"migration.go":            "plan",
	"edge.go":                 "edge",
	"batch.go":                "edge",
	"patching.go":             "edge",
	"audittap.go":             "audit",
	"observe.go":              "stats",
	"config.go":               "setup",
	"metrics.go":              "setup",
}

// engineFuncs maps internal/core/engine.go functions to layers: the
// file holds the event loop and the handlers that dispatch into the
// other layers.
var engineFuncs = map[string]string{
	"Run": "queue", "Step": "queue", "dispatch": "queue", "popEvent": "queue", "push": "queue", "holdWake": "queue",
	"handleWake": "wake", "finish": "wake", "recycle": "wake",
	"handleArrival": "select", "primeArrival": "select", "newRequest": "select", "drawClientCaps": "select",
	"handleFailure": "select", "scheduleInteraction": "select", "handleInteraction": "select",
	"Reset": "setup", "NewEngine": "setup", "Start": "setup", "checkFaultTime": "setup",
	"ScheduleFailure": "setup", "ScheduleRecovery": "setup", "ScheduleBrownout": "setup", "ScheduleRestore": "setup",
	"clearRequests": "setup", "clearCopies": "setup", "resizeBools": "setup", "resizeFloats": "setup",
}

// pkgLayers maps simulator packages other than internal/core to layers.
var pkgLayers = map[string]string{
	"semicont/internal/simtime":    "queue",
	"semicont/internal/core/alloc": "allocate",
	"semicont/internal/edge":       "edge",
	"semicont/internal/audit":      "audit",
	"semicont/internal/stats":      "stats",
	"semicont/internal/workload":   "workload",
	"semicont/internal/zipf":       "workload",
	"semicont/internal/catalog":    "setup",
	"semicont/internal/placement":  "setup",
	"semicont/internal/faults":     "setup",
	"semicont":                     "setup",
}

func layerOf(pkg, file, fn string) string {
	if pkg != "semicont/internal/core" {
		if l, ok := pkgLayers[pkg]; ok {
			return l
		}
		return "other"
	}
	if file == "engine.go" {
		if l, ok := engineFuncs[fn]; ok {
			return l
		}
		return "other"
	}
	if file == "controller.go" && fn == "admitViaMigration" {
		return "plan"
	}
	if l, ok := coreFiles[file]; ok {
		return l
	}
	return "other"
}

// profile is the part of a pprof profile.proto the folding needs.
type profile struct {
	samples   []pbSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]pbFunction
	strings   []string
}

type pbSample struct {
	locations []uint64 // leaf first
	values    []int64
}

type pbFunction struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6
	sampleLocation = 1
	sampleValue    = 2
	locationID     = 1
	locationLine   = 4
	lineFunction   = 1
	functionID     = 1
	functionName   = 2
	functionFile   = 4
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]pbFunction{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s pbSample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return appendInts(&s.locations, v, data)
				case sampleValue:
					var vals []uint64
					if err := appendInts(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var f pbFunction
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					f.name = int64(v)
				case functionFile:
					f.file = int64(v)
				}
				return nil
			})
			p.functions[id] = f
			return err
		case profStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendInts appends a repeated integer field, packed (data) or not (v).
func appendInts(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed profile protobuf")

// eachField calls f for every field of a protobuf message: v carries a
// varint value, data the payload of a length-delimited field (nil for
// varints). Fixed-width fields are skipped.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var data []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if typ == 5 {
				w = 4
			}
			if len(b) < w {
				return errBadProto
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("%w: wire type %d", errBadProto, typ)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
