// Command perfbench is the repository's steady-state training-step
// benchmark. Each operation is one fsmoe.StepStack call on a stack of
// MoE layers at two in-process ranks, timed from outside the call, in a
// closed loop: the next step starts when the previous one returns.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload esp-compute --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it steps an instrumented twin of the stack, records
// spans around every call into a layer, runs the per-layer probes and
// reports the per-layer metrics. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the lines
// before it are a human-readable report and a stamp of the machine and
// the source the run measured.
//
// Correctness is checked in every run: each step's rank replicas must be
// bit-identical, and after the warm-up steps rank 0's parameters must
// equal those of a plain single-rank sequential stack stepped as often.
// A step that errors or fails a check counts in "failed".
//
// Times are net of hypervisor steal (steal.go) and the peak heap is
// sampled inside steps as well as between them (heap.go).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for spans and checkpoint files
}

func parseOptions(args []string) (options, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload name")
	seed := fset.Uint64("seed", 1, "workload seed: layer parameters and inputs derive from it")
	seconds := fset.Float64("seconds", 30, "length of the timed loop in seconds")
	trace := fset.Int("trace", 0, "1 reports per-layer metrics from an instrumented run")
	out := fset.String("out", ".bench_build/perfbench", "directory for spans and checkpoint files")
	if err := fset.Parse(args); err != nil {
		return options{}, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	opt, err := parseOptions(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	b := &bench{opt: opt, w: opt.workload, log: stdout}
	b.xs, b.dys = b.w.inputs(opt.seed)
	var res *result
	if opt.trace {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s is %v", name, m.Value)
			res.Metrics[name] = metric{0, m.Unit}
			res.Correct, res.Failed = false, len(b.failures)
		}
	}
	for _, f := range b.failures {
		fmt.Fprintln(stdout, "FAIL:", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "%-36s %16.6g %s\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	st, err := json.Marshal(stampFor(opt, b.samples))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stamp %s\n", st)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// stamp identifies the machine and the source a result came from, so
// results kept over time compare like with like.
type stamp struct {
	CPU        string         `json:"cpu"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	GitSHA     string         `json:"git_sha"`
	SourceSHA  string         `json:"source_sha256"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Trace      bool           `json:"trace"`
	Samples    map[string]int `json:"samples"`
}

func stampFor(opt options, samples map[string]int) stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Go:         goruntime.Version(),
		GitSHA:     gitSHA("."),
		SourceSHA:  sourceSHA("."),
		Workload:   opt.workload.name,
		Seed:       opt.seed,
		Trace:      opt.trace,
		Samples:    samples,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return goruntime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return goruntime.GOARCH
}

// gitSHA reads HEAD from a .git directory under root without running
// git; a checkout without one reports "none".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceSHA hashes every Go source and go.mod file under root (hidden
// directories skipped) in path order: it identifies the measured code
// even where the checkout is not a git repository.
func sourceSHA(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "none"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
