package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// refs.json holds recorded outputs for the default and held-out seeds:
// refs[workload][seed][metric]. Relative errors match to refRelTol; counts
// match exactly. Other seeds are checked by the seed-independent checks
// alone (fixed budget, bit-exact repeats, relerr recomputed from the
// factors, OOC/in-memory parity, served answers equal to a plain scan).
//
//go:embed refs.json
var refsJSON []byte

const refsPath = "perfbench/refs.json"

// refRelTol bounds the drift of a recorded relative error. The solves are
// deterministic on one machine; the slack covers libm differences between
// hosts.
const refRelTol = 1e-9

// refKeys are the values recorded per workload and seed.
var refKeys = []string{
	"final_relerr", "dist_final_relerr",
	"distnet.mttkrp_bytes", "distnet.factor_bytes", "distnet.gram_bytes", "distnet.messages",
}

type refTable map[string]map[string]map[string]float64

func loadRefs() refTable {
	t := refTable{}
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		fatal(fmt.Errorf("refs.json: %w", err))
	}
	return t
}

// recordedRef returns the recorded value of name for the workload and seed.
func recordedRef(workload string, seed int64, name string) (float64, bool) {
	v, ok := loadRefs()[workload][strconv.FormatInt(seed, 10)][name]
	return v, ok
}

// checkRefs compares the run's values against the recorded ones for its
// seed, if any were recorded.
func checkRefs(r *report, seed int64) {
	want := loadRefs()[r.workload][strconv.FormatInt(seed, 10)]
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got, ok := r.values[name]
		if !ok {
			continue
		}
		if strings.HasSuffix(name, "relerr") {
			r.checkClose(name+" vs recorded reference", got, want[name], refRelTol)
		} else {
			r.check(got == want[name], "%s = %v, recorded %v", name, got, want[name])
		}
	}
}

// recordRefs stores this run's reference values for its seed.
func recordRefs(workload string, seed int64, r *report) error {
	t := loadRefs()
	if t[workload] == nil {
		t[workload] = map[string]map[string]float64{}
	}
	vals := map[string]float64{}
	for _, k := range refKeys {
		if v, ok := r.values[k]; ok {
			vals[k] = v
		}
	}
	t[workload][strconv.FormatInt(seed, 10)] = vals
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsPath, append(b, '\n'), 0o644)
}
