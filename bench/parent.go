package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"text/tabwriter"
	"time"
)

// subprocessEnv marks a process the benchmark started itself; the test
// binary's TestMain uses it to act as this command.
const subprocessEnv = "BENCH_SUBPROCESS"

// hostSink keeps the host kernel's result alive.
var hostSink [sha256.Size]byte

// syncWriter serializes writes to a writer several goroutines share.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// options are the command's flags.
type options struct {
	workload      string
	seed          int64
	seconds       int
	trace         int
	out           string
	quick         bool
	calibrate     int
	corruptOracle bool
}

func (o options) scale() scale {
	if o.quick {
		return quickScale
	}
	return fullScale
}

func (o options) childConfig() childConfig {
	return childConfig{scale: o.scale(), seed: o.seed, corruptOracle: o.corruptOracle}
}

// run is the command: it parses args and dispatches to the parent, a
// child, a cold start or calibration. It returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if _, ok := stderr.(*os.File); !ok {
		// Children's standard error is copied in by one goroutine each.
		stderr = &syncWriter{w: stderr}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four, interleaved)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; serve tenant i uses seed+i")
	fs.IntVar(&o.seconds, "seconds", 0, "timed seconds of the run, shared by its workloads (default: 20 per workload, a quarter with -quick)")
	fs.IntVar(&o.trace, "trace", 1, "1: after the timed rounds, replay each workload traced, write <out>/trace-<workload>.json and report the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for generated inputs, traces and calibration results")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: toy inputs, a quarter of a second per workload; the numbers mean nothing")
	fs.IntVar(&o.calibrate, "calibrate", 0, "run each workload this many times with -trace 0 (seeds seed, seed+1, ...) and print the spread of every metric an untraced run measures")
	fs.BoolVar(&o.corruptOracle, "corrupt-oracle", false, "flip a byte of every oracle, so that the run must report failed ops")
	child := fs.Bool("child", false, "internal: serve the parent as the -workload's long-lived child")
	cold := fs.Bool("cold", false, "internal: run one cold start of the -workload")
	in := fs.String("in", "", "internal: the child's input directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds < 0 || o.calibrate < 0 || ((*child || *cold) && o.workload == "") {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	ws := workloads
	if o.workload != "" {
		w, ok := lookupWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		ws = []workload{w}
	}

	var err error
	switch {
	case *child:
		err = runChild(ctx, ws[0], *in, o.out, o.childConfig(), os.Stdin, stdout)
	case *cold:
		err = runCold(ctx, ws[0], *in, o.childConfig(), stdout)
	case o.calibrate > 0:
		err = calibrate(ctx, o, ws, stdout, stderr)
	default:
		return parent(ctx, o, ws, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// result is the JSON object the last line of the output holds.
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

// parent runs the benchmark and prints its report.
func parent(ctx context.Context, o options, ws []workload, stdout, stderr io.Writer) int {
	reports, err := measure(ctx, o, ws, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printTable(stdout, reports)
	res := result{Metrics: make(map[string]metricValue)}
	for _, r := range reports {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, f := range r.failures {
			fmt.Fprintf(stderr, "bench: %s: FAILED: %s\n", r.w.name, f)
		}
		list := r.e2e
		if o.trace == 1 {
			list = r.layers
		}
		for _, m := range list {
			name := m.Name
			if len(reports) > 1 {
				name = r.w.name + "." + name
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fmt.Fprintf(stderr, "bench: %s: %s has no value\n", r.w.name, m.Name)
				return 1
			}
			res.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadReport is one workload's measurements.
type workloadReport struct {
	w                 workload
	e2e, layers       []measurement
	attempted, failed int
	failures          []string
}

// proc is a child process speaking the JSON line protocol.
type proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

// spawn starts this executable with args.
func spawn(ctx context.Context, args []string, stderr io.Writer) (*proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), subprocessEnv+"=1")
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &proc{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}, nil
}

// wait closes the child's input and waits for it to exit.
func (p *proc) wait() error {
	return errors.Join(p.stdin.Close(), p.cmd.Wait())
}

// kill stops the child and waits for it.
func (p *proc) kill() {
	if err := p.cmd.Process.Kill(); err == nil {
		_ = p.cmd.Wait() // the kill is the cause; its exit status adds nothing
	}
}

// childArgs are the flags a child of w inherits.
func childArgs(o options, mode string, w workload, dir string) []string {
	args := []string{"-" + mode, "-workload", w.name, "-in", dir, "-out", o.out,
		"-seed", fmt.Sprint(o.seed)}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.corruptOracle {
		args = append(args, "-corrupt-oracle")
	}
	return args
}

// measure generates the inputs, drives the children through the timed
// rounds with cold starts spread between them, and collects each
// workload's report.
func measure(ctx context.Context, o options, ws []workload, stderr io.Writer) ([]workloadReport, error) {
	sc := o.scale()
	perWorkload := 20 * time.Second
	if o.quick {
		perWorkload = time.Second / 4
	}
	total := time.Duration(len(ws)) * perWorkload
	if o.seconds > 0 {
		total = time.Duration(o.seconds) * time.Second
	}
	// Twenty rounds or more, so that the serve workload's peak_rss_mib,
	// the median of one peak per round, rests on twenty samples.
	rounds := max(20, int(math.Round(total.Seconds()/2.5)))
	if o.quick {
		rounds = 2
	}
	budget := total / time.Duration(rounds*len(ws))

	// Input generation is the benchmark's set-up, not the program's:
	// it finishes before any clock starts.
	dirs := make([]string, len(ws))
	gen := make([]float64, len(ws))
	for i, w := range ws {
		dirs[i] = filepath.Join(o.out, "inputs", w.name)
		if err := os.RemoveAll(dirs[i]); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := generate(ctx, w, dirs[i], o.seed, sc); err != nil {
			return nil, fmt.Errorf("generating %s: %w", w.name, err)
		}
		gen[i] = time.Since(t0).Seconds()
	}

	procs := make([]*proc, 0, len(ws))
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()
	// The children start together; nothing is timed until all are ready.
	for i, w := range ws {
		p, err := spawn(ctx, childArgs(o, "child", w, dirs[i]), stderr)
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	digests := make([]string, len(ws))
	for i, w := range ws {
		var r ready
		if err := procs[i].dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: starting child: %w", w.name, err)
		}
		digests[i] = r.Digest
	}

	hostBuf := make([]byte, 16<<20)
	for i := range hostBuf {
		hostBuf[i] = byte(i * 131)
	}
	var hostRef []float64
	hostSample := func() {
		t0 := time.Now()
		hostSink = sha256.Sum256(hostBuf)
		hostRef = append(hostRef, ms(time.Since(t0)))
	}

	reports := make([]workloadReport, len(ws))
	cold := make([][]float64, len(ws))
	for r := 0; r < rounds; r++ {
		hostSample()
		order := make([]int, len(ws))
		for i := range order {
			order[i] = i
		}
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, i := range order {
			w := ws[i]
			// Cold starts, spread across the run.
			for k := 0; k < sc.coldStarts; k++ {
				if k*rounds/sc.coldStarts != r {
					continue
				}
				s, d, err := coldStart(ctx, o, w, dirs[i], stderr)
				if err != nil {
					return nil, fmt.Errorf("%s: cold start: %w", w.name, err)
				}
				cold[i] = append(cold[i], s)
				reports[i].attempted++
				if d != digests[i] {
					reports[i].failed++
					reports[i].failures = append(reports[i].failures, "cold start answered differently from the long-lived child")
				}
			}
			cmd := command{Op: "round", Budget: budget}
			if r == rounds-1 && !o.quick {
				cmd.MinOps = w.minOps()
			}
			if err := procs[i].enc.Encode(cmd); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			var ack struct{}
			if err := procs[i].dec.Decode(&ack); err != nil {
				return nil, fmt.Errorf("%s: round %d: %w", w.name, r, err)
			}
		}
		hostSample()
	}

	for i, w := range ws {
		if err := procs[i].enc.Encode(command{Op: "finish", Trace: o.trace == 1}); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		var res childResult
		if err := procs[i].dec.Decode(&res); err != nil {
			return nil, fmt.Errorf("%s: finishing: %w", w.name, err)
		}
		if err := procs[i].wait(); err != nil {
			return nil, fmt.Errorf("%s: child: %w", w.name, err)
		}
		rep, err := report(w, res, cold[i], hostRef, gen[i], o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.attempted += reports[i].attempted
		rep.failed += reports[i].failed
		rep.failures = append(rep.failures, reports[i].failures...)
		reports[i] = rep
	}
	procs = nil
	return reports, nil
}

// coldStart times one fresh child from exec until it answers its first
// op, and returns the answer's digest.
func coldStart(ctx context.Context, o options, w workload, dir string, stderr io.Writer) (float64, string, error) {
	t0 := time.Now()
	p, err := spawn(ctx, childArgs(o, "cold", w, dir), stderr)
	if err != nil {
		return 0, "", err
	}
	var r ready
	err = p.dec.Decode(&r)
	elapsed := time.Since(t0).Seconds()
	if err != nil {
		p.kill()
		return 0, "", err
	}
	return elapsed, r.Digest, p.wait()
}

// report turns a child's result into the workload's metrics.
func report(w workload, res childResult, cold, hostRef []float64, genS float64, o options) (workloadReport, error) {
	rep := workloadReport{w: w, attempted: res.Attempted, failed: res.Failed, failures: res.Failures}
	def := func(name string) metricDef {
		d, ok := lookupDef(name)
		if !ok {
			panic("bench: metric " + name + " is not in the catalog")
		}
		return d
	}
	minBeyond := minBeyondTail
	if o.quick {
		minBeyond = 0
	}
	if len(res.Op) == 0 {
		return rep, errors.New("no successful timed op")
	}
	tailV, err := tail(res.Op, w.tailP, minBeyond)
	if err != nil {
		return rep, fmt.Errorf("op_tail_ms: %w", err)
	}
	tailM := fromSamples(def("op_tail_ms"), res.Op)
	tailM.Value = tailV
	ops := float64(len(res.Op))
	measured := make(map[string]measurement)
	for _, m := range []measurement{
		fromSamples(def("op_ms"), res.Op),
		tailM,
		fromSamples(def("read_ms"), res.Read),
		single(def("records_per_s"), float64(res.Records)/res.Timed.Seconds()),
		fromSamples(def("peak_rss_mib"), res.Peak),
		fromSamples(def("setup_s"), cold),
		single(def("runtime.alloc_mib_per_op"), float64(res.Alloc)/(1<<20)/ops),
		single(def("runtime.allocs_per_op"), float64(res.Mallocs)/ops),
		single(def("runtime.gc_per_op"), float64(res.GCs)/ops),
		single(def("runtime.cpu_ms_per_op"), ms(res.CPU)/ops),
		fromSamples(def("bench.host_ref_ms"), hostRef),
		single(def("bench.gen_s"), genS),
	} {
		measured[m.Name] = m
	}
	for _, d := range endToEnd {
		rep.e2e = append(rep.e2e, measured[d.Name])
	}
	for _, d := range perLayer {
		if m, ok := measured[d.Name]; ok {
			rep.layers = append(rep.layers, m)
			continue
		}
		if o.trace != 1 {
			continue
		}
		v, ok := res.Layers[d.Name]
		if !ok {
			return rep, fmt.Errorf("the traced replay did not report %s", d.Name)
		}
		rep.layers = append(rep.layers, single(d, v))
	}
	return rep, nil
}

// printTable writes every metric with its unit, sample count and
// quartiles.
func printTable(w io.Writer, reports []workloadReport) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tp25\tmedian\tp75\tvalue")
	for _, r := range reports {
		for _, m := range append(append([]measurement(nil), r.e2e...), r.layers...) {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.5g\t%.5g\t%.5g\t%.6g\n", r.w.name, m.Name, m.Unit, m.N, m.Q1, m.Q2, m.Q3, m.Value)
		}
		fmt.Fprintf(tw, "%s\tops\t\t\t\t\t\t%d attempted, %d failed\n", r.w.name, r.attempted, r.failed)
	}
	tw.Flush()
}
