// Command jurybench is the repository's benchmark: it builds cmd/juryd,
// runs fixed workloads against fresh juryd processes on loopback, checks
// every output, and reports end-to-end metrics (untraced) or per-layer
// metrics (traced). See bench/README.md.
//
// One workload, as BENCHMARK.json runs it (the last line of standard
// output is the result as one JSON object):
//
//	jurybench -workload select-uncached-N128 -seed 3 -seconds 30 -trace 0
//
// Every workload, with five passes each, into a result file:
//
//	jurybench -seed 1 -passes 5 -out run.json
//
// Two result files, metric by metric:
//
//	jurybench -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run sets its cluster up; it
// reports the median and measures on the last one.
const setupReps = 9

// warmup is the discarded load phase before each measured window.
const warmup = 2 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the parsed flags.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	warmup   time.Duration
	trace    bool
	passes   int
	out      string
	root     string // repository root holding cmd/juryd; found from the working directory if empty
	work     string // juryd binary and data directories; <root>/.bench_build if empty
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jurybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds float64
	var trace int
	var cmp bool
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all, in order)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&seconds, "seconds", 30, "length of each measured window, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: run the traced pass and report per-layer metrics")
	fs.IntVar(&o.passes, "passes", 1, "how many times to run each workload")
	fs.StringVar(&o.out, "out", "", "write the result document to this file")
	fs.BoolVar(&cmp, "compare", false, "compare two result documents given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "jurybench: -compare takes two result files")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "jurybench:", err)
			return 1
		}
		return 0
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.warmup = warmup
	o.trace = trace == 1
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 || o.passes < 1 {
		fmt.Fprintln(stderr, "jurybench: bad arguments; see -help")
		return 2
	}
	doc, err := bench(ctx, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "jurybench:", err)
		return 1
	}
	ok := true
	for _, r := range doc.Runs {
		for _, f := range r.Failures {
			fmt.Fprintf(stderr, "jurybench: %s: check failed: %s\n", r.Workload, f)
		}
		ok = ok && r.Correct
	}
	if o.workload != "" && o.passes == 1 {
		line, err := resultLine(doc.Runs[0], o.trace)
		if err != nil {
			fmt.Fprintln(stderr, "jurybench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		return 1
	}
	if o.out != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "jurybench:", err)
			return 1
		}
	}
	return 0
}

// document is a result file: every run of one invocation.
type document struct {
	Schema  string    `json:"schema"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Warmup  float64   `json:"warmup_seconds"`
	Traced  bool      `json:"traced"`
	Passes  int       `json:"passes"`
	Host    host      `json:"host"`
	Started string    `json:"started"`
	Runs    []*result `json:"runs"`
}

type host struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

const schema = "jurybench/1"

// result is one workload run.
type result struct {
	Workload  string   `json:"workload"`
	Pass      int      `json:"pass"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   metrics  `json:"metrics"`
	Spans     []span   `json:"spans,omitempty"`
}

// resultLine renders a run as the one-line JSON object BENCHMARK.json's
// command prints last, with exactly the metrics BENCHMARK.json lists.
func resultLine(r *result, traced bool) ([]byte, error) {
	m := listedMetrics(r.Metrics, traced)
	for _, d := range catalogue {
		if _, ok := m[d.name]; !ok && d.layer == traced && !d.local {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		}
	}
	return json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
}

// findRoot returns the nearest directory at or above the working
// directory that holds cmd/juryd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "juryd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/juryd at or above the working directory; run jurybench inside the repository")
		}
		dir = parent
	}
}

// bench builds juryd and runs the selected workloads, printing each
// metric as it is measured.
func bench(ctx context.Context, o options, stdout io.Writer) (*document, error) {
	sel := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return nil, err
		}
		sel = []*workload{w}
	}
	if o.root == "" {
		root, err := findRoot()
		if err != nil {
			return nil, err
		}
		o.root = root
	}
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build")
	}
	binDir := filepath.Join(o.work, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildJuryd(o.root, binDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(o.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(o.work, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	doc := &document{
		Schema: schema, Seed: o.seed, Seconds: o.seconds.Seconds(), Warmup: o.warmup.Seconds(),
		Traced: o.trace, Passes: o.passes, Started: time.Now().UTC().Format(time.RFC3339),
		Host: host{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
	}
	env := &runEnv{bin: bin, tmp: tmp, seconds: o.seconds, warmup: o.warmup}
	for pass := 1; pass <= o.passes; pass++ {
		for _, w := range sel {
			var res *result
			var err error
			if o.trace {
				res, err = env.traced(ctx, w, gen{o.seed})
			} else {
				res, err = env.untraced(ctx, w, gen{o.seed})
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			res.Pass = pass
			for _, name := range sortedNames(res.Metrics) {
				v := res.Metrics[name]
				fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, name, formatValue(v.Value), v.Unit)
			}
			doc.Runs = append(doc.Runs, res)
		}
	}
	return doc, nil
}
