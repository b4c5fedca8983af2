// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload in-process, checks every output against the
// library (and the library against the interpreter), and prints one
// JSON result line:
//
//	perfbench --workload compile --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// of the same workload that reports the per-layer split (see README.md).
// --workload all runs every workload in turn, each in a child process.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads lists the benchmark's workloads in run order.
var workloads = []string{"compile", "serve-hit", "serve-churn"}

// config is one run's settings.
type config struct {
	seed     int64
	duration time.Duration
	// maxOps, when positive, ends the timed phase after that many ops
	// instead of at duration (tests use it to make counts repeatable).
	maxOps int
	traced bool
	// setups is how many times set-up is repeated; setup_s is the
	// median and the last set-up is the one measured.
	setups int
	// tmp is where temporary stores are created.
	tmp string
	// procs is the GOMAXPROCS the correctness checks run with, which
	// restore it after set-up and the timed phase ran on one P (0 =
	// leave it as it is).
	procs int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "compile, serve-hit, serve-churn, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	tmp, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-tmp"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg := config{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		setups:   3,
		tmp:      tmp,
		// One P: the goroutines of an op take turns on one thread, so
		// the process's CPU time is the op's work. With a second P the
		// garbage collector's idle-time mark workers would add CPU time
		// that grows when the host has spare cycles and shrinks when
		// it does not.
		procs: runtime.GOMAXPROCS(1),
	}
	res, err := runWorkload(*workload, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res.report(stderr, *workload)
	return printResult(res, stdout, stderr)
}

func printResult(res *result, stdout, stderr io.Writer) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload in a child process of its own, with the
// same flags, so that each workload's peak_mem_mb, heap and runtime
// state are its own, and folds the children's result lines into one.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var results []*result
	for _, name := range workloads {
		childArgs := append(append([]string(nil), args...), "--workload", name)
		var out bytes.Buffer
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		res := newResult()
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: result line: %v\n", name, err)
			return 1
		}
		results = append(results, res)
	}
	return printResult(combine(workloads, results), stdout, stderr)
}

var errUnknownWorkload = errors.New("unknown workload (want compile, serve-hit, serve-churn or all)")

func runWorkload(name string, cfg config) (*result, error) {
	switch name {
	case "compile":
		return runCompile(cfg)
	case "serve-hit":
		return runServe(hitSpec, cfg)
	case "serve-churn":
		return runServe(churnSpec, cfg)
	}
	return nil, fmt.Errorf("%q: %w", name, errUnknownWorkload)
}

// combine folds several workloads' results into one line whose metric
// names are prefixed with the workload, for --workload all.
func combine(names []string, results []*result) *result {
	out := newResult()
	for i, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, m := range r.Metrics {
			out.Metrics[names[i]+"/"+k] = m
		}
	}
	return out
}
