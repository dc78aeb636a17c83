package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) (exclusive method) computes them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// runSet is one set of runs: per workload, each run's parsed result.
type runSet map[string][]Result

func runOnce(self, workload string, seed int64, seconds int) (Result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return Result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r Result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return Result{}, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	return r, nil
}

// steadySets is the number of sets of runs compared.
const steadySets = 2

// steadyMain runs each workload -runs times per set, for two sets, each run
// with another seed and run_seconds long, and reports per end-to-end metric
// the quartiles, the spread (Q3-Q1)/median against the metric's bound,
// whether the second set's median stays within the bound of the first
// set's, and each set's failed share, which must be the same in both sets.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload per set")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 2
	}
	seconds := spec.RunSeconds
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 2
	}
	all := make([]runSet, steadySets)
	for s := range all {
		all[s] = runSet{}
		for i := 0; i < *runs; i++ {
			for _, w := range names {
				seed := int64(s*1000 + i + 1)
				r, err := runOnce(self, w, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %v\n", err)
					return 1
				}
				all[s][w] = append(all[s][w], r)
			}
		}
	}
	ok := true
	for _, w := range names {
		fmt.Printf("== %s (%d runs x %d sets, %d s each)\n", w, *runs, steadySets, seconds)
		fmt.Printf("%-18s %4s %12s %12s %12s %8s %6s %s\n", "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			var first float64
			for s := range all {
				var v []float64
				for _, r := range all[s][w] {
					v = append(v, r.Metrics[m.Name].Value)
				}
				q1, q2, q3 := quartiles(v)
				spread := (q3 - q1) / q2
				verdict := "ok"
				if !(spread <= m.Bound) {
					verdict, ok = "SPREAD", false
				}
				if s == 0 {
					first = q2
				} else if worse := (q2 - first) / first; (m.Better == "lower" && worse > m.Bound) ||
					(m.Better == "higher" && -worse > m.Bound) {
					verdict, ok = "DRIFT", false
				}
				fmt.Printf("%-18s %4d %12.4f %12.4f %12.4f %8.4f %6.2f %s\n", m.Name, s+1, q1, q2, q3, spread, m.Bound, verdict)
			}
		}
		// The failed share must match exactly: every run attempts whole
		// rounds, so a share that differs between two sets of runs of the
		// same code is a failure that comes and goes, and a later commit's
		// failed count could not be compared with this one's.
		var att0, failed0 int
		for s := range all {
			att, failed := 0, 0
			for _, r := range all[s][w] {
				att += r.Attempted
				failed += r.Failed
			}
			fmt.Printf("set %d: attempted %d failed %d (share %.6f)\n", s+1, att, failed,
				float64(failed)/float64(att))
			if s == 0 {
				att0, failed0 = att, failed
			} else if failed0*att != failed*att0 {
				fmt.Printf("FAILED SHARE differs from set 1\n")
				ok = false
			}
		}
	}
	if !ok {
		fmt.Println("NOT STEADY")
		return 1
	}
	fmt.Println("STEADY")
	return 0
}
