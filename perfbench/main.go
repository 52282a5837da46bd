// Command perfbench is the repository's serving benchmark. It drives the
// real stack in-process over loopback HTTP — client SDK → ckks wire
// format → serve handlers → keys store → henn compile/lower → exec →
// guard → ckks evaluator → ring kernels — under one seeded workload and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run is repeated layer by layer with spans recorded around each call,
// and the metrics are the per-layer set. Any wrong output (logits off
// the plaintext model's) makes the exit code non-zero. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload keyed-cnn1 --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"cnnhe/internal/ring"
	"cnnhe/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outDir receives the span and report files, inside the checkout and
// beside the build (run.sh builds into the same directory).
const outDir = ".bench_build/perfbench"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are one invocation's settings.
type opts struct {
	seed     int64
	duration time.Duration
	traced   bool
	outDir   string
	log      io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for images, keys, encryption randomness and arrival times")
	secs := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o := opts{seed: *seed, duration: time.Duration(*secs * float64(time.Second)), traced: *trace == 1, outDir: outDir, log: stderr}
	limit := setMemoryLimit()
	// The serve, exec and keys layers count into the default telemetry
	// registry (cmd/heserve turns it on the same way); the benchmark
	// reads those counters but adds none of its own.
	telemetry.SetEnabled(true)

	st := stamp(w, o, limit)
	fmt.Fprintf(stderr, "perfbench: %s\n", mustJSON(st))
	m, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := m.result(o.traced)
	if err := writeReport(o, w, st, m, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing report: %v\n", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stderr, "perfbench: %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	m.summary(stderr)
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d wrong output(s)\n", m.wrong)
		return 1
	}
	return 0
}

// setMemoryLimit caps the Go heap below the machine's RAM, so that the
// garbage collector, not the kernel's OOM killer, bounds the keyed
// workloads' resident key material. It returns the limit in bytes.
func setMemoryLimit() int64 {
	const ceiling = 5 << 30
	limit := int64(ceiling)
	if total := memTotal(); total > 0 && total*6/10 < limit {
		limit = total * 6 / 10
	}
	debug.SetMemoryLimit(limit)
	return limit
}

// memTotal reads MemTotal from /proc/meminfo (0 when unavailable).
func memTotal() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb int64
		if n, _ := fmt.Sscanf(sc.Text(), "MemTotal: %d kB", &kb); n == 1 {
			return kb << 10
		}
	}
	return 0
}

// runStamp identifies the conditions a report was measured under:
// serial and limb-parallel runs, or runs on different core counts, must
// never be compared.
type runStamp struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Traced       bool    `json:"traced"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	RingParallel bool    `json:"ring_parallel"`
	LogN         int     `json:"logn"`
	ShardGrid    string  `json:"shard_grid"`
	MemLimitMiB  int64   `json:"mem_limit_mib"`
	GitCommit    string  `json:"git_commit"`
	GoVersion    string  `json:"go_version"`
}

func stamp(w *workload, o opts, limit int64) runStamp {
	return runStamp{
		Workload:     w.name,
		Seed:         o.seed,
		Seconds:      o.duration.Seconds(),
		Traced:       o.traced,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		RingParallel: ring.ParallelDefault(),
		LogN:         w.logN,
		ShardGrid:    w.grid,
		MemLimitMiB:  limit >> 20,
		GitCommit:    gitCommit("."),
		GoVersion:    runtime.Version(),
	}
}

// gitCommit resolves HEAD from dir/.git without running git; a checkout
// that is not a repository reports "unknown".
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// writeReport stores the stamped full report (every metric, both
// counts, the tail percentile) next to the span file.
func writeReport(o opts, w *workload, st runStamp, m *measurement, res result) error {
	mode := "e2e"
	if o.traced {
		mode = "trace"
	}
	rep := struct {
		Stamp  runStamp       `json:"stamp"`
		Result result         `json:"result"`
		Extra  map[string]any `json:"extra"`
	}{st, res, m.extra()}
	path := filepath.Join(o.outDir, fmt.Sprintf("report-%s-seed%d-%s.json", w.name, o.seed, mode))
	return os.WriteFile(path, []byte(mustJSON(rep)+"\n"), 0o644)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers reach here
	}
	return string(b)
}
