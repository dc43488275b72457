// Command benchmark is progqoi's benchmark. It drives four named
// workloads through the public progqoi API, checks every output, and
// prints end-to-end metrics from an untraced run or, with --trace 1,
// per-layer metrics from a traced run. README.md in this directory maps
// each metric to the layer and workload it reads.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload local-ge6 --seed 1 --seconds 12 --trace 0
//	cd benchmark && go run . --workload all --seed 1 --seconds 12
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the full
// report: provenance, every metric with its unit and sample count, and
// any failed op.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupRuns is how many times a run sets its workload up, each time on
// its own dataset derived from the seed. setup_s is the median, and the
// ops cycle through all set-ups, so a run's figures average over
// setupRuns datasets rather than hang on one.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "dataset seed")
	seconds := fs.Int("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	ctx := context.Background()
	d := time.Duration(*seconds) * time.Second
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	var reps []report
	for _, w := range chosen {
		rep, err := measure(ctx, w, *seed, d, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printTable(stderr, rep)
		reps = append(reps, rep)
		final.Correct = final.Correct && rep.Failed == 0
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for k, v := range rep.Gated {
			if len(chosen) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	out := bufio.NewWriter(stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"report": reps}); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := enc.Encode(final); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// measure sets the workload up setupRuns times, each on its own dataset,
// and measures all set-ups in turn: one untraced pass, or an untraced then
// a traced pass of half the time each for a traced run.
func measure(ctx context.Context, w workload, seed int64, d time.Duration, traced bool) (report, error) {
	var (
		r      runner
		setups []float64
		seeds  []int64
	)
	for i := range int64(setupRuns) {
		runtime.GC()
		dseed := seed*setupRuns + i
		t0 := time.Now()
		ri, err := w.setup(ctx, dseed)
		if err != nil {
			return report{}, fmt.Errorf("set-up with dataset seed %d: %w", dseed, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		seeds = append(seeds, dseed)
		defer ri.close()
		if r == nil {
			r = ri
		} else {
			r.join(ri)
		}
	}
	rep := newReport(w, seed, seeds, traced)
	rep.Setups = setups
	if !traced {
		p, err := r.pass(ctx, d, false)
		if err != nil {
			return report{}, err
		}
		rep.endToEnd(setups, p)
		return rep, nil
	}
	plain, err := r.pass(ctx, d/2, false)
	if err != nil {
		return report{}, err
	}
	p, err := r.pass(ctx, d/2, true)
	if err != nil {
		return report{}, err
	}
	rep.perLayer(plain, p)
	return rep, nil
}
