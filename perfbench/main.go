// Command perfbench is the end-to-end benchmark of the ASYNC engine and its
// job daemon. It drives one of three seeded workloads through the public
// API for a fixed time, checks every output, and prints every metric with
// its unit; the last line of standard output is the JSON result.
//
//	perfbench --workload serve-churn --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded at every call the benchmark makes into a
// layer and reports the per-layer metrics. --selftest runs every workload
// briefly in both modes and checks that each metric BENCHMARK.json names
// is present, finite and carries its unit. run.py builds this program from
// the enclosing checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is what one workload run receives.
type runConfig struct {
	seed    int64
	window  time.Duration
	setups  int
	workdir string
	tr      *tracer // nil: untraced
}

// check is one pass/fail output or validity check of a run.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// outcome is what a workload run measured.
type outcome struct {
	attempted int
	// failures counts attempted jobs whose answer the client did not get
	// or got wrong, by reason. A job that ran more than once but answered
	// correctly is not a failure: the extra runs are wasted work, which
	// runs_per_job measures.
	failures map[string]int
	checks   []check
	e2e      map[string]float64
	layer    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{failures: map[string]int{}, e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) failed() int {
	n := 0
	for _, v := range o.failures {
		n += v
	}
	return n
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// endToEnd fills the end-to-end metrics every workload reports the same
// way from per-group samples (job latency in ms, time to target in s; one
// group per sub-window or rotation), the run's rates and its runs per
// attempted job, and puts the pooled p90 tails, too unsteady for a bound,
// among the per-layer metrics.
func (o *outcome) endToEnd(lat, ttt [][]float64, jobsPerS, updatesPerS, runsPerJob float64) {
	o.e2e["job_latency_p50_ms"] = medianOfQuantiles(lat, 0.5)
	o.e2e["jobs_per_s"] = jobsPerS
	o.e2e["time_to_target_p50_s"] = medianOfQuantiles(ttt, 0.5)
	o.e2e["updates_per_s"] = updatesPerS
	o.e2e["runs_per_job"] = runsPerJob
	o.e2e["max_rss_mb"] = maxRSSMB()
	o.layer["tail.job_latency_p90_ms"] = quantile(pooled(lat), 0.9)
	o.layer["tail.time_to_target_p90_s"] = quantile(pooled(ttt), 0.9)
}

type workload struct {
	run func(runConfig) (*outcome, error)
	// headline is the end-to-end metric trace.overhead_share compares
	// between the traced and the untraced run.
	headline     string
	higherBetter bool
}

var workloads = map[string]workload{
	"serve-churn": {runServeChurn, "job_latency_p50_ms", false},
	"paper-train": {runPaperTrain, "jobs_per_s", true},
	"tcp-ps":      {runTCPPS, "updates_per_s", true},
}

// setupsPerRun is how many times a run sets its workload up before the
// measured window, and again after it; setup_s is the median of all.
const setupsPerRun = 5

// hardDeadline bounds one invocation: a run that cannot finish in time
// exits without printing a result.
const hardDeadline = 175 * time.Second

func main() {
	name := flag.String("workload", "", "serve-churn | paper-train | tcp-ps")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 30, "measured window length in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/perfbench", "scratch directory for stores, traces and cached results")
	selftest := flag.Bool("selftest", false, "run every workload briefly in both modes and check the metric contract")
	flag.Parse()

	time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: exceeded %v, giving up\n", hardDeadline)
		os.Exit(3)
	})
	if *selftest {
		if err := runSelftest(*workdir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: selftest: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := execute(*name, w, runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second,
		setups: setupsPerRun, workdir: *workdir}, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload in the requested mode, prints the host stamp,
// checks and metric table, and returns the result line.
func execute(name string, w workload, cfg runConfig, traced bool) (*result, error) {
	scratch := filepath.Join(cfg.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg.workdir = scratch
	stamp := hostStampFor(name, cfg, traced)
	printJSONLine("host", stamp)

	cachePath := filepath.Join(filepath.Dir(scratch), "untraced",
		fmt.Sprintf("%s-seed%d-%ds.json", name, cfg.seed, int(cfg.window.Seconds())))
	var o *outcome
	var err error
	if !traced {
		if o, err = w.run(cfg); err != nil {
			return nil, err
		}
		_ = writeJSONFile(cachePath, o.e2e)
	} else {
		// trace.overhead_share compares against the untraced run of the
		// same workload, seed and length; measure one first if this
		// checkout has none
		var base map[string]float64
		if readJSONFile(cachePath, &base) != nil {
			o0, err := w.run(cfg)
			if err != nil {
				return nil, err
			}
			base = o0.e2e
			_ = writeJSONFile(cachePath, base)
		}
		cfg.tr = newTracer()
		if o, err = w.run(cfg); err != nil {
			return nil, err
		}
		t, u := o.e2e[w.headline], base[w.headline]
		if w.higherBetter {
			o.layer["trace.overhead_share"] = ratio(u, t) - 1
		} else {
			o.layer["trace.overhead_share"] = ratio(t, u) - 1
		}
		tracePath := filepath.Join(filepath.Dir(scratch), "traces", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		if err := cfg.tr.write(tracePath, stamp); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(cfg.tr.spans), tracePath)
	}

	list, values := endToEnd, o.e2e
	if traced {
		list, values = perLayer, o.layer
	}
	res := &result{Correct: true, Attempted: o.attempted, Failed: o.failed(), Metrics: map[string]metricValue{}}
	var bad []string
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, m.Name)
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	o.check("metrics present and finite", len(bad) == 0, "%s", strings.Join(bad, " "))
	if res.Attempted < 1 {
		o.check("attempted at least one job", false, "")
		res.Attempted = 1
		res.Failed = 1
	}
	for _, c := range o.checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
			res.Correct = false
		}
		fmt.Printf("check %s: %s %s\n", status, c.Name, c.Detail)
	}
	reasons := make([]string, 0, len(o.failures))
	for r := range o.failures {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Printf("failed jobs: %d %s\n", o.failures[r], r)
	}
	fmt.Printf("jobs: attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, m := range list {
		fmt.Printf("metric %-32s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	return res, nil
}

// hostStamp records where a result was measured, so numbers from different
// hosts are never compared silently.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	StoreFS    string `json:"store_fs"`
}

func hostStampFor(name string, cfg runConfig, traced bool) hostStamp {
	return hostStamp{
		Workload: name, Seed: cfg.seed, Seconds: int(cfg.window.Seconds()), Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Kernel: kernelRelease(), StoreFS: fsType(cfg.workdir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsType names the filesystem holding dir (fsync cost depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func printJSONLine(tag string, v any) {
	b, _ := json.Marshal(v)
	fmt.Printf("%s: %s\n", tag, b)
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// setupTimes runs build n times, closing all but the last environment, and
// returns the last one with each set-up's time in seconds.
func setupTimes[E any](n int, build func() (E, error), teardown func(E)) (E, []float64, error) {
	var env E
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(env)
		}
		start := time.Now()
		e, err := build()
		if err != nil {
			var zero E
			return zero, nil, err
		}
		env = e
		secs = append(secs, time.Since(start).Seconds())
	}
	// collect what the discarded set-ups left behind, so that the measured
	// window does not pay for it
	runtime.GC()
	return env, secs, nil
}

// setupAgain runs build n more times once the window has been measured,
// closing each environment, and returns setup_s: the median over these and
// the set-ups before the window. Host speed on a shared machine drifts over
// seconds, and set-ups at both ends of the run sample it twice.
func setupAgain[E any](before []float64, n int, build func() (E, error), teardown func(E)) (float64, error) {
	secs := append([]float64(nil), before...)
	runtime.GC()
	for i := 0; i < n; i++ {
		start := time.Now()
		e, err := build()
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		teardown(e)
	}
	return quantile(secs, 0.5), nil
}
