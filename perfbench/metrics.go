package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// metric names one reported figure and its unit. The lists below are the
// benchmark's contract: BENCHMARK.json names exactly these, and every run
// prints all of them (end-to-end untraced, per-layer traced).
type metric struct {
	Name, Unit string
}

var endToEnd = []metric{
	{"setup_s", "s"},
	{"job_latency_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"time_to_target_p50_s", "s"},
	{"updates_per_s", "1/s"},
	{"runs_per_job", "ratio"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metric{
	{"jobs.submit_ms.p50", "ms"},
	{"jobs.submit_ms.p99", "ms"},
	{"jobs.queue_wait_ms.p50", "ms"},
	{"jobs.queue_wait_ms.p99", "ms"},
	{"jobs.run_ms.p50", "ms"},
	{"jobs.affinity_share", "share"},
	{"jobs.runs_per_job", "ratio"},
	{"jobs.preemptions", "count"},
	{"jobs.rejected", "count"},
	{"store.append.calls", "count"},
	{"store.append_ms.p50", "ms"},
	{"store.append_ms.p99", "ms"},
	{"store.append.busy_share", "share"},
	{"store.spill.calls", "count"},
	{"store.spill_ms.p50", "ms"},
	{"store.spill_ms.p99", "ms"},
	{"store.claim.calls", "count"},
	{"store.claim_ms.p50", "ms"},
	{"store.renew.calls", "count"},
	{"store.release.calls", "count"},
	{"store.load.calls", "count"},
	{"store.load_ms.p50", "ms"},
	{"store.fsyncs", "count"},
	{"store.fsync_ms.mean", "ms"},
	{"store.compactions", "count"},
	{"store.log_mb", "MB"},
	{"engine.spinup_ms", "ms"},
	{"engine.distribute_ms", "ms"},
	{"dataset.generate_ms", "ms"},
	{"opt.reference_ms", "ms"},
	{"opt.apply_us.mean", "us"},
	{"opt.settle_us.mean", "us"},
	{"opt.checkpoint_save_ms.mean", "ms"},
	{"opt.checkpoint_restore_ms.mean", "ms"},
	{"opt.select.hits", "count"},
	{"opt.select.misses", "count"},
	{"opt.select.rebuilds", "count"},
	{"opt.select.fallbacks", "count"},
	{"opt.updates_to_target.p50", "count"},
	{"core.tasks", "count"},
	{"core.results", "count"},
	{"core.staleness.mean", "updates"},
	{"core.staleness.max", "updates"},
	{"core.task_compute_ms.mean", "ms"},
	{"core.task_wait_ms.mean", "ms"},
	{"core.roundtrip_ms.mean", "ms"},
	{"core.idle_share", "share"},
	{"wire.bytes_per_update", "B"},
	{"wire.frames_per_update", "count"},
	{"wire.gob_share", "share"},
	{"wire.mb_per_s", "MB/s"},
	{"proc.cpu_s_per_update", "s"},
	{"proc.alloc_mb_per_update", "MB"},
	{"tail.job_latency_p90_ms", "ms"},
	{"tail.time_to_target_p90_s", "s"},
	{"loadgen.late_ms.p99", "ms"},
	{"trace.additivity_share", "share"},
	{"trace.overhead_share", "share"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianOfQuantiles is the median, over groups of samples (sub-windows or
// rotations of one run), of each group's q-quantile: a slowdown confined
// to part of a run moves it less than the quantile of the pooled sample.
func medianOfQuantiles(groups [][]float64, q float64) float64 {
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, quantile(g, q))
		}
	}
	return quantile(per, 0.5)
}

func pooled(groups [][]float64) []float64 {
	var out []float64
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// promSnapshot is a parsed Prometheus text exposition: series name (with
// its label set, as printed) to value.
type promSnapshot map[string]float64

// scrapeProcess reads the process-global registry the engine layers
// (core, opt, cluster, store) export into.
func scrapeProcess() promSnapshot {
	var buf bytes.Buffer
	telemetry.Default().WritePrometheus(&buf)
	out := promSnapshot{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// promDelta is the change of the process counters over a window.
type promDelta struct{ before, after promSnapshot }

func (d promDelta) get(series string) float64 { return d.after[series] - d.before[series] }

// meanOf is a histogram's mean over the window, in its base unit.
func (d promDelta) meanOf(hist string) float64 {
	return ratio(d.get(hist+"_sum"), d.get(hist+"_count"))
}

// prefix sums the deltas of every series starting with p (series by
// series, so unchanged series contribute exactly zero).
func (d promDelta) prefix(p string) float64 {
	var s float64
	for k, v := range d.after {
		if strings.HasPrefix(k, p) {
			s += v - d.before[k]
		}
	}
	return s
}

// procSample is the process-level resource state at one instant.
type procSample struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: m.TotalAlloc,
	}
}

// maxRSSMB is the process's peak resident set (VmHWM), in MB.
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// windowMetrics fills the per-layer metrics every workload reads the same
// way: opt, core and wire deltas of the process registry, and process
// CPU and allocation per model update.
func windowMetrics(out map[string]float64, d promDelta, p0, p1 procSample) {
	updates := d.get("async_core_updates_total")
	out["opt.apply_us.mean"] = d.meanOf("async_opt_apply_seconds") * 1e6
	out["opt.settle_us.mean"] = d.meanOf("async_opt_settle_seconds") * 1e6
	out["opt.checkpoint_save_ms.mean"] = d.meanOf("async_opt_checkpoint_save_seconds") * 1e3
	out["opt.checkpoint_restore_ms.mean"] = d.meanOf("async_opt_checkpoint_restore_seconds") * 1e3
	out["opt.select.hits"] = d.get("async_opt_select_hits_total")
	out["opt.select.misses"] = d.get("async_opt_select_misses_total")
	out["opt.select.rebuilds"] = d.get("async_opt_select_rebuilds_total")
	out["opt.select.fallbacks"] = d.get("async_opt_select_fallbacks_total")
	out["core.tasks"] = d.get("async_core_tasks_dispatched_total")
	out["core.results"] = d.get("async_core_results_total")
	out["core.staleness.mean"] = d.meanOf("async_core_staleness")
	wait := d.get("async_core_task_wait_seconds_sum")
	compute := d.get("async_core_task_compute_seconds_sum")
	out["core.task_compute_ms.mean"] = d.meanOf("async_core_task_compute_seconds") * 1e3
	out["core.task_wait_ms.mean"] = d.meanOf("async_core_task_wait_seconds") * 1e3
	out["core.roundtrip_ms.mean"] = d.meanOf("async_core_dispatch_roundtrip_seconds") * 1e3
	out["core.idle_share"] = ratio(wait, wait+compute)
	// workers run in this process, so every frame is counted once by its
	// sender and once by its receiver: the tx side alone is the traffic
	txBytes := d.prefix("async_wire_tx_bytes_total")
	txFrames := d.prefix("async_wire_tx_frames_total")
	out["wire.bytes_per_update"] = ratio(txBytes, updates)
	out["wire.frames_per_update"] = ratio(txFrames, updates)
	out["wire.gob_share"] = ratio(d.get(`async_wire_tx_frames_total{format="gob"}`), txFrames)
	out["wire.mb_per_s"] = txBytes / 1e6 / p1.at.Sub(p0.at).Seconds()
	out["proc.cpu_s_per_update"] = ratio((p1.cpu - p0.cpu).Seconds(), updates)
	out["proc.alloc_mb_per_update"] = ratio(float64(p1.alloc-p0.alloc)/1e6, updates)
}

// bypass checks that a window left a layer's process counters untouched.
func bypass(name string, d promDelta, prefixes ...string) check {
	var moved []string
	for _, p := range prefixes {
		if v := d.prefix(p); v != 0 {
			moved = append(moved, p+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return check{Name: name, OK: len(moved) == 0, Detail: strings.Join(moved, " ")}
}
