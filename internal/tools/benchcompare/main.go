// Command benchcompare diffs two benchjson files (see internal/tools/benchjson)
// and fails when a benchmark regressed: any benchmark present in both files
// whose current ns/op exceeds the baseline's by more than -pct percent exits
// nonzero, with a one-line verdict per compared benchmark either way.
//
//	benchcompare -baseline base.json -current head.json \
//	             -pct 15 -match SweepPlanCache,ScanPositions
//
// -match restricts the comparison to benchmarks whose name contains one of
// the comma-separated substrings (empty = compare everything). A matched
// benchmark present in the baseline but missing from the current run fails
// too: deleting or renaming a pinned benchmark must not silently drop it
// from the gate. A benchmark only the current run has is reported as new.
// scripts/bench_compare.sh produces both files on one machine from the base
// revision and the working tree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline benchjson file (required)")
	currentPath := flag.String("current", "", "current benchjson file (required)")
	pct := flag.Float64("pct", 15, "ns/op regression threshold in percent")
	match := flag.String("match", "", "comma-separated name substrings to compare (empty = all)")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fatal(fmt.Errorf("-baseline and -current are required"))
	}
	base, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}
	var filters []string
	for _, f := range strings.Split(*match, ",") {
		if f = strings.TrimSpace(f); f != "" {
			filters = append(filters, f)
		}
	}

	regressions := 0
	compared := 0
	for _, c := range cur {
		if !matches(c.Name, filters) {
			continue
		}
		b, ok := base[c.Name]
		if !ok {
			fmt.Printf("benchcompare: new  %s: not in baseline\n", c.Name)
			continue
		}
		if b.NsPerOp <= 0 || c.NsPerOp <= 0 {
			continue
		}
		compared++
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		switch {
		case delta > *pct:
			fmt.Printf("benchcompare: FAIL %s: %.0f ns/op vs baseline %.0f (%+.1f%%, threshold %+.1f%%)\n",
				c.Name, c.NsPerOp, b.NsPerOp, delta, *pct)
			regressions++
		default:
			fmt.Printf("benchcompare: ok   %s: %.0f ns/op vs baseline %.0f (%+.1f%%)\n",
				c.Name, c.NsPerOp, b.NsPerOp, delta)
		}
		delete(base, c.Name)
	}
	missing := make([]string, 0, len(base))
	for name := range base {
		if matches(name, filters) {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("benchcompare: FAIL %s: in baseline but not in current run (renamed or deleted?)\n", name)
	}
	if regressions > 0 || len(missing) > 0 {
		fmt.Printf("benchcompare: %d of %d compared benchmark(s) regressed more than %.1f%%, %d missing\n",
			regressions, compared, *pct, len(missing))
		os.Exit(1)
	}
	fmt.Printf("benchcompare: %d benchmark(s) within %.1f%% of baseline\n", compared, *pct)
}

// load reads a benchjson file into a by-name map. A -count run repeats each
// name; the minimum ns/op wins — the best-of-N statistic is far more robust
// to scheduler noise than any single sample, so both sides of the diff
// should be produced with the same -count.
func load(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]result, len(results))
	for _, r := range results {
		if prev, ok := out[r.Name]; ok && prev.NsPerOp > 0 && (r.NsPerOp <= 0 || prev.NsPerOp <= r.NsPerOp) {
			continue
		}
		out[r.Name] = r
	}
	return out, nil
}

func matches(name string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	for _, f := range filters {
		if strings.Contains(name, f) {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcompare:", err)
	os.Exit(1)
}
