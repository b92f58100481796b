// Command benchtables regenerates the paper's evaluation tables (1–6),
// this repository's Table 7 (the Section VII extensions ablation) and the
// figure demonstrations from live runs of the fourteen benchmark workloads.
//
// Usage:
//
//	benchtables                 # all tables
//	benchtables -table 1        # one table
//	benchtables -figure 4       # one figure demo
//	benchtables -bench ferret,dedup -scale 2 -seed 7
//	benchtables -pipeline-json BENCH_pipeline.json   # worker-sweep bench
//	benchtables -wire-json BENCH_wire.json           # remote-service bench
//	benchtables -obs-json BENCH_obs.json             # telemetry overhead bench
//	benchtables -mem-json BENCH_mem.json             # memory lane (allocs/op, shadow bytes)
//	benchtables -cluster-json BENCH_cluster.json     # sharded-cluster scaling lane (N=1/2/4 members)
//	benchtables -sampling-json BENCH_sampling.json   # budgeted-sampling lane (races-found-vs-rate curve)
//
// Every number is measured in-process; nothing is replayed from files. See
// EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/tables"
)

func main() {
	var (
		table   = flag.Int("table", 0, "render only this table (1-7); 0 = all")
		asJSON  = flag.Bool("json", false, "emit every table as JSON")
		figure  = flag.Int("figure", 0, "render only this figure demo (1, 2 or 4)")
		scale   = flag.Int("scale", 1, "workload scale factor")
		seed    = flag.Int64("seed", 42, "scheduler seed")
		runs    = flag.Int("runs", 3, "timing runs per configuration (the minimum is kept)")
		bench   = flag.String("bench", "", "comma-separated benchmark subset")
		memMB   = flag.Int64("comparator-mem-mb", 0, "comparator memory budget in MB (0 = default)")
		timeout = flag.Duration("comparator-timeout", 30*time.Second, "comparator wall-time budget")

		pipelineJSON = flag.String("pipeline-json", "",
			"write the sharded-pipeline worker-sweep bench to this file (e.g. BENCH_pipeline.json)")
		pipelineWorkers = flag.String("pipeline-workers", "",
			"comma-separated worker counts for -pipeline-json (default 0,1,2,4,8)")

		wireJSON = flag.String("wire-json", "",
			"write the wire codec + loopback remote-overhead bench to this file (e.g. BENCH_wire.json)")
		wireBatches = flag.String("wire-batches", "",
			"comma-separated batch sizes for -wire-json's codec rows (default 64,2048,8192)")

		obsJSON = flag.String("obs-json", "",
			"write the telemetry overhead bench to this file (e.g. BENCH_obs.json)")
		obsWorkers = flag.String("obs-workers", "",
			"comma-separated worker counts for -obs-json (default 0,2)")

		memJSON = flag.String("mem-json", "",
			"write the memory lane (shadow bytes, live nodes, allocs/op, GC pauses per workload × granularity) to this file (e.g. BENCH_mem.json)")

		clusterJSON = flag.String("cluster-json", "",
			"write the detection-cluster scaling lane (events/s and p50 fan-out latency at 1/2/4 loopback members) to this file (e.g. BENCH_cluster.json)")
		clusterMembers = flag.String("cluster-members", "",
			"comma-separated member counts for -cluster-json (default 1,2,4)")

		samplingJSON = flag.String("sampling-json", "",
			"write the budgeted-sampling lane (races-found-vs-rate curve per workload × budget) to this file (e.g. BENCH_sampling.json)")
		samplingBudgets = flag.String("sampling-budgets", "",
			"comma-separated budget fractions for -sampling-json (default 1,0.5,0.2,0.1,0.05,0.02,0.01)")
	)
	flag.Parse()

	if *figure != 0 {
		switch *figure {
		case 1:
			fmt.Println("Figure 1. An example execution of DJIT+")
			fmt.Print(tables.Figure1())
		case 2:
			fmt.Println("Figure 2. Vector clock state machine (observable evidence)")
			fmt.Print(tables.Figure2())
		case 4:
			fmt.Println("Figure 4. Indexing structure: m/4 -> m expansion")
			fmt.Print(tables.Figure4())
		default:
			fmt.Fprintf(os.Stderr, "no demo for figure %d (figure 3 is the implemented read path itself)\n", *figure)
			os.Exit(2)
		}
		return
	}

	cfg := tables.Config{
		Scale:             *scale,
		Seed:              *seed,
		TimingRuns:        *runs,
		ComparatorTimeout: *timeout,
	}
	if *memMB > 0 {
		cfg.ComparatorMemLimit = *memMB << 20
	}
	if *bench != "" {
		cfg.Benchmarks = strings.Split(*bench, ",")
	}
	r := tables.NewRunner(cfg)

	if *pipelineJSON != "" {
		var sweep []int
		if *pipelineWorkers != "" {
			for _, tok := range strings.Split(*pipelineWorkers, ",") {
				var w int
				if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &w); err != nil || w < 0 {
					fmt.Fprintf(os.Stderr, "bad -pipeline-workers entry %q\n", tok)
					os.Exit(2)
				}
				sweep = append(sweep, w)
			}
		}
		f, err := os.Create(*pipelineJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = r.WritePipelineJSON(f, sweep)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *pipelineJSON)
		return
	}

	if *memJSON != "" {
		f, err := os.Create(*memJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = r.WriteMemJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *memJSON)
		return
	}

	if *clusterJSON != "" {
		var counts []int
		if *clusterMembers != "" {
			for _, tok := range strings.Split(*clusterMembers, ",") {
				var n int
				if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &n); err != nil || n <= 0 {
					fmt.Fprintf(os.Stderr, "bad -cluster-members entry %q\n", tok)
					os.Exit(2)
				}
				counts = append(counts, n)
			}
		}
		f, err := os.Create(*clusterJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = r.WriteClusterJSON(f, counts)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *clusterJSON)
		return
	}

	if *samplingJSON != "" {
		var budgets []float64
		if *samplingBudgets != "" {
			for _, tok := range strings.Split(*samplingBudgets, ",") {
				var b float64
				if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%g", &b); err != nil || b <= 0 || b > 1 {
					fmt.Fprintf(os.Stderr, "bad -sampling-budgets entry %q (want a fraction in (0,1])\n", tok)
					os.Exit(2)
				}
				budgets = append(budgets, b)
			}
		}
		f, err := os.Create(*samplingJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = r.WriteSamplingJSON(f, budgets)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *samplingJSON)
		return
	}

	if *obsJSON != "" {
		var sweep []int
		if *obsWorkers != "" {
			for _, tok := range strings.Split(*obsWorkers, ",") {
				var w int
				if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &w); err != nil || w < 0 {
					fmt.Fprintf(os.Stderr, "bad -obs-workers entry %q\n", tok)
					os.Exit(2)
				}
				sweep = append(sweep, w)
			}
		}
		f, err := os.Create(*obsJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = r.WriteObsJSON(f, sweep)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *obsJSON)
		return
	}

	if *wireJSON != "" {
		var sizes []int
		if *wireBatches != "" {
			for _, tok := range strings.Split(*wireBatches, ",") {
				var n int
				if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &n); err != nil || n <= 0 {
					fmt.Fprintf(os.Stderr, "bad -wire-batches entry %q\n", tok)
					os.Exit(2)
				}
				sizes = append(sizes, n)
			}
		}
		f, err := os.Create(*wireJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = r.WriteWireJSON(f, sizes)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *wireJSON)
		return
	}

	if *asJSON {
		if err := r.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	render := map[int]func(){
		1: func() { r.RenderTable1(os.Stdout) },
		2: func() { r.RenderTable2(os.Stdout) },
		3: func() { r.RenderTable3(os.Stdout) },
		4: func() { r.RenderTable4(os.Stdout) },
		5: func() { r.RenderTable5(os.Stdout) },
		6: func() { r.RenderTable6(os.Stdout) },
		7: func() { r.RenderTable7(os.Stdout) },
	}
	if *table != 0 {
		f, ok := render[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown table %d\n", *table)
			os.Exit(2)
		}
		f()
		return
	}
	for i := 1; i <= 7; i++ {
		render[i]()
	}
}
