// Command perfbench is the repository's benchmark. It runs one workload
// and ends its standard output with one JSON line:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 it measures the end-to-end metrics through the public
// semicont API only (semicont.Run, or SubmitTrials/Summarize on one
// sweep pool). With -trace 1 it reports the per-layer metrics: a
// reference untraced run, a CPU-profiled untraced run folded into layer
// shares, and a traced run that drives the layers' public functions
// itself and must reproduce the untraced results exactly.
//
// Build and run it from the checkout root with perfbench/run.sh; see
// perfbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	// short selects the workloads' short horizons and one pass of each
	// kind: the smoke-test mode, set only by the benchmark's own tests.
	short bool
	out   string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts simulation runs and the ones that failed: returned an
// error (audit violations included), broke an accounting identity,
// diverged from the pinned fingerprint or from the untraced run.
type tally struct {
	attempted, failed int
	reasons           int // FAIL lines printed
	out               io.Writer
}

// maxReasons caps the FAIL lines one process prints.
const maxReasons = 10

// fail records n failed runs and says why.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	t.reasons++
	switch {
	case t.reasons <= maxReasons:
		fmt.Fprintf(t.out, "FAIL %s\n", fmt.Sprintf(format, args...))
	case t.reasons == maxReasons+1:
		fmt.Fprintln(t.out, "FAIL (further failures counted, not printed)")
	}
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+`, or "all", each in its own process`)
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement budget of an untraced run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if o.workload == "all" {
		if err := runAll(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in a process of its own, one after the
// other, with the same flags.
func runAll() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	for _, w := range workloadNames() {
		cmd := exec.Command(self, append(args, "-workload="+w)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
	}
	return nil
}

// run measures one workload in the requested mode, printing progress
// and every metric to out, and returns the result line.
func run(o options, out io.Writer) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if !(o.seconds > 0) {
		return nil, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	scs := w.scenarios(o.seed, w.horizon(o.short))
	man := newManifest(w, o, scs)
	if err := printJSON(out, "manifest", man); err != nil {
		return nil, err
	}
	t := &tally{out: out}
	var ms map[string]metric
	if o.trace == 0 {
		ms, err = measureEndToEnd(w, o, scs, t)
	} else {
		ms, err = measurePerLayer(w, o, scs, man, t)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "metric %-32s %.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
	fmt.Fprintf(out, "failed_frac %.6g (%d of %d runs failed)\n", t.failedFrac(), t.failed, t.attempted)
	return &report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   ms,
	}, nil
}

func printJSON(out io.Writer, label string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s %s\n", label, b)
	return err
}
