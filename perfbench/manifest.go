package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"semicont"
)

// manifest identifies a result row: what ran, on which host, from which
// sources.
type manifest struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Short    bool    `json:"short"`
	Hours    float64 `json:"hours"`
	Runs     int     `json:"runs"`
	Workers  int     `json:"pool_workers"`
	// ScenarioHash is the SHA-256 of the JSON-encoded scenario list.
	ScenarioHash string `json:"scenario_hash"`

	GoMaxProcs      int    `json:"gomaxprocs"`
	HardwareThreads int    `json:"hardware_threads"`
	CPUModel        string `json:"cpu_model"`
	GoVersion       string `json:"go_version"`
	// GitRevision comes from the build's VCS stamp, which exists only
	// when the benchmark is built inside a git work tree; elsewhere it
	// reads "unknown".
	GitRevision string `json:"git_revision"`
}

func newManifest(w *workloadSpec, o options, scs []semicont.Scenario) manifest {
	m := manifest{
		Workload:        w.name,
		Seed:            o.seed,
		Trace:           o.trace,
		Short:           o.short,
		Hours:           w.horizon(o.short),
		Runs:            w.runs(scs),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		HardwareThreads: runtime.NumCPU(),
		CPUModel:        cpuModel(),
		GoVersion:       runtime.Version(),
		GitRevision:     "unknown",
	}
	if w.trials > 0 {
		m.Workers = poolWorkers
	}
	if b, err := json.Marshal(scs); err == nil {
		sum := sha256.Sum256(b)
		m.ScenarioHash = hex.EncodeToString(sum[:])
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRevision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			m.GitRevision += "+dirty"
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
