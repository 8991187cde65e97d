package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// A record file is a JSON array of records, one per benchmark run, in the
// order the runs were made. -record appends to one; -compare reads two.

// record is one run's result with the settings that produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// appendRecord adds rec to the record file at path, creating it if absent.
func appendRecord(path string, rec record) error {
	recs, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(recs, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// minSets is the fewest pairs of runs a verdict rests on.
const minSets = 10

// verdict judges one metric of one workload over paired runs: a[i] is a
// parent run and b[i] the change's run with the same seed. A change wins a
// pair when it reads better; ties count for neither side.
//
//   - improved: the change wins at least 9/10 of the pairs and the medians
//     differ by more than the parent's interquartile range.
//   - regressed: over the pairs, the median of the change's value as a share
//     of the parent's is worse than 1 by more than the bound.
//   - unresolved: fewer than minSets pairs, or the parent's spread is wider
//     than the bound, unless every change run reads better than every
//     parent run.
//   - unchanged: otherwise.
//
// A metric without a bound (Bound 0: the per-layer metrics) reads "worse"
// where the improved rule holds the other way round, and is never
// unresolved for its spread.
func verdict(m metricSpec, a, b []float64) string {
	if len(a) < minSets {
		return "unresolved"
	}
	sign := direction(m)
	wins, losses := pairWins(sign, a, b)
	q1, ma, q3 := quartiles(a)
	iqr := q3 - q1
	gain := sign * (median(b) - ma)
	r := ratios(a, b)
	switch {
	case 10*wins >= 9*len(a) && gain > iqr:
		return "improved"
	case m.Bound == 0 && 10*losses >= 9*len(a) && -gain > iqr:
		return "worse"
	case m.Bound == 0:
		return "unchanged"
	case len(r) > 0 && -sign*(median(r)-1) > m.Bound:
		return "regressed"
	case iqr > m.Bound*math.Abs(ma) && !allBetter(sign, a, b):
		return "unresolved"
	}
	return "unchanged"
}

// ratios returns b[i]/a[i] for every pair whose parent value is not 0.
func ratios(a, b []float64) []float64 {
	var r []float64
	for i := range a {
		if a[i] != 0 {
			r = append(r, b[i]/a[i])
		}
	}
	return r
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

// compare prints, for every workload and metric both record files hold,
// each side's median and quartiles over the paired runs, the change's wins
// over the pairs and the verdict. It reports whether any end-to-end metric
// regressed.
func compare(w io.Writer, spec *benchSpec, parentPath, changePath string) (bool, error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-16s %-30s %12s %25s %12s %25s %7s  %s\n",
		"workload", "metric", "parent", "[q1 q3]", "change", "[q1 q3]", "wins", "verdict")
	for trace, metrics := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, wl := range spec.Workloads {
			a, b := pairRuns(parent, change, wl.Name, trace)
			for _, m := range metrics {
				va, vb := a[m.Name], b[m.Name]
				if len(va) == 0 {
					continue
				}
				v := verdict(m, va, vb)
				wins, _ := pairWins(direction(m), va, vb)
				regressed = regressed || v == "regressed"
				aq1, am, aq3 := quartiles(va)
				bq1, bm, bq3 := quartiles(vb)
				fmt.Fprintf(w, "%-16s %-30s %12.5g [%11.5g %11.5g] %12.5g [%11.5g %11.5g] %7s  %s\n",
					wl.Name, m.Name, am, aq1, aq3, bm, bq1, bq3, fmt.Sprintf("%d/%d", wins, len(va)), v)
			}
		}
	}
	return regressed, nil
}

// pairRuns pairs the parent's and the change's runs of one workload and
// trace mode by seed: the k-th run of a seed on one side with the k-th run
// of that seed on the other. It returns each metric's values on both sides,
// pair i at index i of each.
func pairRuns(parent, change []record, workload string, trace int) (a, b map[string][]float64) {
	bySeed := func(recs []record) map[int64][]record {
		out := map[int64][]record{}
		for _, r := range recs {
			if r.Workload == workload && r.Trace == trace {
				out[r.Seed] = append(out[r.Seed], r)
			}
		}
		return out
	}
	pa, pb := bySeed(parent), bySeed(change)
	seeds := make([]int64, 0, len(pa))
	for s := range pa {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	a, b = map[string][]float64{}, map[string][]float64{}
	for _, s := range seeds {
		for k := 0; k < min(len(pa[s]), len(pb[s])); k++ {
			ra, rb := pa[s][k], pb[s][k]
			for name, mv := range ra.Metrics {
				if mb, ok := rb.Metrics[name]; ok {
					a[name] = append(a[name], mv.Value)
					b[name] = append(b[name], mb.Value)
				}
			}
		}
	}
	return a, b
}

// median returns the median of v (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, q2, _ := quartiles(v)
	return q2
}

// quartiles returns the first, second and third quartile of v by the
// method of Python's statistics.quantiles(v, n=4) (method "exclusive").
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// direction is +1 for a metric that is better higher, -1 for lower.
func direction(m metricSpec) float64 {
	if m.Better == "lower" {
		return -1
	}
	return 1
}

// pairWins counts the pairs in which b reads better (wins) and worse
// (losses) than a; ties count for neither.
func pairWins(sign float64, a, b []float64) (wins, losses int) {
	for i := range a {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	return wins, losses
}
