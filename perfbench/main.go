// Command perfbench is satcell's benchmark. One process runs one
// workload: it builds the workload's inputs from --seed, repeats the
// timed phase for --seconds, checks every pass's output, and prints
// one JSON result line with the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). README.md explains
// the workloads and what each metric should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload campaign --seed 42 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workers bounds every worker pool the benchmark starts, and
// GOMAXPROCS, so a run does the same work on any host.
const workers = 2

// defaultSeed is the seed whose outputs are pinned in golden.go.
const defaultSeed = 42

// workload is one benchmark input set.
type workload interface {
	// setup builds the workload's inputs; it is timed as setup_s.
	setup(ctx context.Context) error
	// pass runs the timed phase once, through p.measure, and checks its
	// output. A traced pass also fills p.layers.
	pass(ctx context.Context, p *pass) error
}

// pass is one execution of a workload's timed phase.
type pass struct {
	traced bool
	ops    *tally
	cost   cost
	layers map[string]float64
}

// measure times fn as the pass's phase.
func (p *pass) measure(fn func() error) error {
	c, err := measure(fn)
	p.cost = c
	return err
}

// tally counts operations — stage attempts, drive units, shards,
// replays and output checks — and the ones that failed.
type tally struct {
	attempted, failed int
}

// add records n operations of one kind, bad of which failed.
func (t *tally) add(n, bad int, what string) {
	t.attempted += n
	t.failed += bad
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d %s failed\n", bad, n, what)
	}
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	bad := 0
	if !ok {
		bad = 1
	}
	t.add(1, bad, "check: "+fmt.Sprintf(format, args...))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a plain run, each the median over its
// passes (setup_s over its set-ups).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, named by the module they
// measure. Every workload reports all of them; a layer the workload
// never enters reads 0 (README.md lists which workload measures what).
var perLayer = []metricDef{
	{"campaign.plan_s", "s"},
	{"campaign.generate_s", "s"},
	{"campaign.verify_s", "s"},
	{"campaign.analyze_s", "s"},
	{"campaign.render_s", "s"},
	{"campaign.supervisor_s", "s"},
	{"campaign.stage_attempts", "count"},
	{"campaign.stage_retries", "count"},
	{"dataset.samples", "count"},
	{"dataset.tests", "count"},
	{"dataset.units", "count"},
	{"dataset.samples_per_s", "1/s"},
	{"dataset.unit_retries", "count"},
	{"dataset.quarantined", "count"},
	{"store.bytes_written", "B"},
	{"store.files_written", "count"},
	{"store.fsyncs", "count"},
	{"store.fsync_s", "s"},
	{"store.write_s", "s"},
	{"store.journal_appends", "count"},
	{"store.journal_fsync_s", "s"},
	{"store.bytes_read", "B"},
	{"store.read_s", "s"},
	{"store.files_opened", "count"},
	{"store.fsck_s", "s"},
	{"store.fsck_rows_per_s", "1/s"},
	{"core.stream_s", "s"},
	{"core.stream_rows", "count"},
	{"core.stream_shards", "count"},
	{"core.rows_per_s", "1/s"},
	{"core.stream_retries", "count"},
	{"core.quarantined", "count"},
	{"core.figures_s", "s"},
	{"core.fig10_s", "s"},
	{"core.fig11_s", "s"},
	{"emu.replays", "count"},
	{"emu.run_s", "s"},
	{"emu.packets", "count"},
	{"emu.packets_per_s", "1/s"},
	{"emu.queue_drops", "count"},
	{"emu.sim_x", "x"},
	{"vclock.pending_peak", "count"},
	{"tcp.segments", "count"},
	{"tcp.retransmits", "count"},
	{"tcp.rtos", "count"},
	{"tcp.retrans_ratio", "frac"},
	{"mptcp.run_s", "s"},
	{"mptcp.bytes_delivered", "B"},
	{"mptcp.goodput_mbps", "Mbps"},
	{"bench.plain_wall_s", "s"},
	{"bench.traced_wall_s", "s"},
	{"failed_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: campaign, replay or reanalyze")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are built from")
	secs := flag.Int("seconds", 10, "how long to repeat the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs int, traced bool) error {
	runtime.GOMAXPROCS(workers)
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var w workload
	switch name {
	case "campaign":
		w = &campaignLoad{seed: seed, work: work}
	case "replay":
		w = &replayLoad{seed: seed}
	case "reanalyze":
		w = &reanalyzeLoad{seed: seed, dir: filepath.Join(work, "store")}
	default:
		return fmt.Errorf("unknown workload %q (want campaign, replay or reanalyze)", name)
	}
	setups := 3
	if traced {
		setups = 1
	}
	res, err := bench(w, setups, time.Duration(secs)*time.Second, traced)
	if err != nil {
		return err
	}
	host, err := json.Marshal(hostInfo())
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", host)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// bench sets the workload up setups times, then repeats its timed phase
// until dur has passed (a traced run first makes one plain pass, to
// report the tracing overhead beside it) and reports medians.
func bench(w workload, setups int, dur time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	ops := &tally{}
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var plain *pass
	if traced {
		plain = &pass{ops: ops}
		if err := w.pass(ctx, plain); err != nil {
			return nil, err
		}
	}
	var passes []*pass
	deadline := time.Now().Add(dur)
	for len(passes) == 0 || time.Now().Before(deadline) {
		p := &pass{traced: traced, ops: ops}
		if traced {
			p.layers = make(map[string]float64)
		}
		if err := w.pass(ctx, p); err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}

	res := &result{
		Correct:   ops.failed == 0,
		Attempted: ops.attempted,
		Failed:    ops.failed,
		Metrics:   make(map[string]metricValue),
	}
	if traced {
		vals := make(map[string][]float64)
		for _, p := range passes {
			p.layers["bench.traced_wall_s"] = p.cost.wall.Seconds()
			for k, v := range p.layers {
				vals[k] = append(vals[k], v)
			}
		}
		vals["bench.plain_wall_s"] = []float64{plain.cost.wall.Seconds()}
		vals["failed_frac"] = []float64{ratio(float64(ops.failed), float64(ops.attempted))}
		known := make(map[string]bool, len(perLayer))
		for _, m := range perLayer {
			known[m.name] = true
			res.Metrics[m.name] = metricValue{median(vals[m.name]), m.unit}
		}
		var unknown []string
		for k := range vals {
			if !known[k] {
				unknown = append(unknown, k)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return nil, fmt.Errorf("traced pass reported metrics missing from the per-layer table: %v", unknown)
		}
		return res, nil
	}
	var wall, cpu, alloc, rss []float64
	for _, p := range passes {
		wall = append(wall, p.cost.wall.Seconds())
		cpu = append(cpu, p.cost.cpu.Seconds())
		alloc = append(alloc, float64(p.cost.alloc)/1e6)
		rss = append(rss, float64(p.cost.peakRSS)/1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, wall %v s, setup %v s\n", len(passes), wall, setupS)
	vals := map[string]float64{
		"setup_s":     median(setupS),
		"wall_s":      median(wall),
		"cpu_s":       median(cpu),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": median(rss),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return res, nil
}
