// Command perfbench is the UoT engine's benchmark: three TPC-H workloads
// (tpch-power, tpch-serve, tpch-spill) driven through the program's public
// entry points, every result checked against an independent oracle, and one
// JSON result line on standard output.
//
//	perfbench --workload tpch-power --seed 1 --seconds 30 --trace 0
//	perfbench steady [-runs 10] [-workloads a,b]
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate traced
// run that prints the per-layer metrics and writes a Chrome trace and a
// per-layer JSON file under .bench_build/trace. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metricDef names one printed metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics --trace 0 prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"geomean_ms", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"qps", "1/s"},
	{"peak_temp_mib", "MiB"},
	{"peak_hash_mib", "MiB"},
}

// perLayer are the metrics --trace 1 prints, on every workload; a layer a
// workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"engine.plan_ms", "ms"}, {"engine.execute_ms", "ms"}, {"engine.result_ms", "ms"},
		{"core.work_orders", "count"}, {"core.busy_ms", "ms"}, {"core.queue_ms", "ms"},
		{"core.idle_share", "share"}, {"core.uot_raises", "count"},
	}
	for _, k := range opKinds {
		defs = append(defs, metricDef{"exec." + k + ".busy_ms", "ms"},
			metricDef{"exec." + k + ".rows_in", "count"}, metricDef{"exec." + k + ".rows_out", "count"})
	}
	return append(defs,
		metricDef{"aggtable.fast_rows_share", "share"}, metricDef{"sorter.fast_rows_share", "share"},
		metricDef{"sorter.topk_pruned", "count"},
		metricDef{"hashtable.shard_locks", "count"}, metricDef{"hashtable.batched_rows", "count"},
		metricDef{"storage.checkouts", "count"},
		metricDef{"storage.spill.blocks_out", "count"}, metricDef{"storage.spill.bytes_out_mib", "MiB"},
		metricDef{"storage.spill.bytes_in_mib", "MiB"}, metricDef{"storage.spill.stall_ms", "ms"},
		metricDef{"storage.spill.disk_peak_mib", "MiB"},
		metricDef{"session.queue_ms", "ms"}, metricDef{"session.service_ms", "ms"},
		metricDef{"session.overhead_ms", "ms"}, metricDef{"session.admitted", "count"},
		metricDef{"session.shed", "count"},
		metricDef{"runtime.alloc_mib", "MiB"}, metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// opKinds are the operator kinds the exec layer metrics break down.
var opKinds = []string{"select", "build", "probe", "agg", "sort"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object printed as the last line of standard output.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "tpch-power | tpch-serve | tpch-spill")
	seed := fs.Int64("seed", 1, "seed for query orders")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := run(*workload, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-28s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("attempted %d failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
