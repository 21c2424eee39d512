package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Bounds a calibrated metric may get: boundPerSpread times the worst
// IQR share seen, at least minBound and at most maxBound. A metric is
// not gated but listed per layer when even demotePerSpread times its
// spread exceeds maxBound. setup_s is the exception: the format of
// BENCHMARK.json requires it among the gated metrics, with the largest
// bound, at most maxSetupBound, so that work moved into set-up shows.
// It is a few cold starts timed by the wall clock, which follows the
// host's speed from minute to minute, so no bound of 10% holds it
// (bench/README.md has the numbers).
const (
	minBound      = 0.03
	maxBound      = 0.10
	maxSetupBound = 0.25
	// A spread under a third of the bound keeps a later set of runs from
	// drifting past it by chance; half the bound is the least margin a
	// gated metric may have.
	boundPerSpread  = 3
	demotePerSpread = 2
)

// calibration is one metric's spread across the calibration runs.
type calibration struct {
	Workload, Metric string
	Values           []float64
	Median           float64
	// IQRShare and RangeShare are the quartile distance and the largest
	// pairwise distance, as shares of the median.
	IQRShare, RangeShare float64
}

// calibrate runs each workload o.calibrate times as the benchmark's
// own subprocess — seeds seed, seed+1, ..., -trace 0, the workload
// order alternating between passes — and prints, for every metric an
// untraced run measures, its median and spread per workload and the
// bound that spread supports. The table is also written to
// <out>/calibration.json.
func calibrate(ctx context.Context, o options, ws []workload, stdout, stderr io.Writer) error {
	values := make(map[string]map[string][]float64)
	var names []string
	for i := 0; i < o.calibrate; i++ {
		order := slices.Clone(ws)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed + int64(i)), "-trace", "0",
				"-out", filepath.Join(o.out, "calibrate"), "-seconds", fmt.Sprint(o.seconds)}
			if o.quick {
				args = append(args, "-quick")
			}
			rows, err := runOnce(ctx, args, stderr)
			if err != nil {
				return fmt.Errorf("pass %d, %s: %w", i+1, w.name, err)
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for _, row := range rows {
				if i == 0 && w.name == ws[0].name {
					names = append(names, row.name)
				}
				values[w.name][row.name] = append(values[w.name][row.name], row.value)
			}
			fmt.Fprintf(stderr, "calibrate: pass %d/%d %s done\n", i+1, o.calibrate, w.name)
		}
	}

	var rows []calibration
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tIQR/median\trange/median")
	for _, w := range ws {
		for _, name := range names {
			xs := values[w.name][name]
			c := calibration{Workload: w.name, Metric: name, Values: xs, Median: median(xs), IQRShare: iqrShare(xs), RangeShare: rangeShare(xs)}
			rows = append(rows, c)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.2f%%\t%.2f%%\n", w.name, name, c.Median, c.IQRShare*100, c.RangeShare*100)
		}
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "metric\tworst IQR/median\tbound")
	for _, name := range names {
		worst := 0.0
		for _, c := range rows {
			if c.Metric == name {
				worst = math.Max(worst, c.IQRShare)
			}
		}
		bound := math.Max(minBound, boundPerSpread*worst)
		var verdict string
		switch {
		case name == "setup_s":
			verdict = fmt.Sprintf("%.2f (gated whatever its spread; the largest bound, at most %.2f)", math.Min(bound, maxSetupBound), maxSetupBound)
		case demotePerSpread*worst > maxBound:
			verdict = "none within the cap: per-layer"
		default:
			verdict = fmt.Sprintf("%.2f", math.Min(bound, maxBound))
		}
		fmt.Fprintf(tw, "%s\t%.2f%%\t%s\n", name, worst*100, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(o.out, "calibration.json"), append(data, '\n'))
}

// tableRow is one metric row of a run's table.
type tableRow struct {
	name  string
	value float64
}

// runOnce runs the benchmark once as a subprocess and returns the
// metric rows of its table. A run that fails an op is an error here.
func runOnce(ctx context.Context, args []string, stderr io.Writer) ([]tableRow, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), subprocessEnv+"=1")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rows []tableRow
	for _, line := range lines[1 : len(lines)-1] {
		f := strings.Fields(string(line))
		if f[1] == "ops" {
			continue
		}
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		rows = append(rows, tableRow{name: f[1], value: v})
	}
	return rows, nil
}
