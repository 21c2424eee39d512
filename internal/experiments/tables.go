package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
)

// Table is a rendered experiment result: a caption, column headers, and
// string cells ready for display.
type Table struct {
	Number  int
	Caption string
	Headers []string
	Rows    [][]string
}

// Table1 regenerates "(Sub-)datasets sizes": the NDJSON byte size of
// every dataset at every scale.
func Table1(cfg Config) (Table, error) {
	t := Table{
		Number:  1,
		Caption: "(Sub-)dataset sizes",
		Headers: []string{"Dataset"},
	}
	scales := cfg.scales()
	for _, s := range scales {
		t.Headers = append(t.Headers, s.Label)
	}
	for _, name := range dataset.PaperNames() {
		row := []string{name}
		for _, s := range scales {
			g, err := dataset.New(name)
			if err != nil {
				return Table{}, err
			}
			n := int64(len(dataset.NDJSON(g, s.N, cfg.seed())))
			row = append(row, formatBytes(n))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// DatasetTable regenerates one of Tables 2-5: per scale, the number of
// distinct inferred types, their min/max/avg sizes, the fused type size,
// and the fused/avg succinctness ratio the paper's discussion uses.
func DatasetTable(name string, cfg Config) (Table, error) {
	number := map[string]int{"github": 2, "twitter": 3, "wikidata": 4, "nytimes": 5}[name]
	t := Table{
		Number:  number,
		Caption: fmt.Sprintf("Results for %s", name),
		Headers: []string{"Scale", "# types", "min", "max", "avg", "fused size", "fused/avg"},
	}
	for _, s := range cfg.scales() {
		res, err := RunPipeline(context.Background(), name, s.N, cfg)
		if err != nil {
			return Table{}, err
		}
		ratio := 0.0
		if res.AvgTypeSize > 0 {
			ratio = float64(res.Fused.Size()) / res.AvgTypeSize
		}
		t.Rows = append(t.Rows, []string{
			s.Label,
			fmt.Sprintf("%d", res.DistinctTypes),
			fmt.Sprintf("%d", res.MinTypeSize),
			fmt.Sprintf("%d", res.MaxTypeSize),
			fmt.Sprintf("%.1f", res.AvgTypeSize),
			fmt.Sprintf("%d", res.Fused.Size()),
			fmt.Sprintf("%.2f", ratio),
		})
	}
	return t, nil
}

// Table6 regenerates "Typing execution times": real measured inference
// and fusion times for GitHub, Twitter and Wikidata at the largest
// configured scale, on the host machine (the paper's single-machine
// configuration).
func Table6(cfg Config) (Table, error) {
	t := Table{
		Number:  6,
		Caption: "Typing execution times (measured on this host)",
		Headers: []string{"Dataset", "Records", "Bytes", "Infer", "Fusion", "Wall"},
	}
	scales := cfg.scales()
	top := scales[len(scales)-1]
	for _, name := range []string{"github", "twitter", "wikidata"} {
		res, err := RunPipeline(context.Background(), name, top.N, cfg)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", res.N),
			formatBytes(res.Bytes),
			res.InferTime.Round(time.Millisecond).String(),
			res.FuseTime.Round(time.Millisecond).String(),
			res.Wall.Round(time.Millisecond).String(),
		})
	}
	return t, nil
}

// Table7 regenerates the cluster experiment: NYTimes (22 GB at paper
// scale) on the simulated 6-node cluster, contrasting the skewed HDFS
// placement the authors found (all blocks on one node; "the computation
// was performed on two nodes while the remaining four were idle") with
// spread-out blocks. Compute rate is calibrated on the host.
func Table7(cfg Config) (Table, error) {
	mbps, err := MeasureComputeMBps("nytimes", cfg)
	if err != nil {
		return Table{}, err
	}
	return table7At(mbps)
}

// table7At simulates Table 7 at a per-core compute rate of mbps MB/s.
// How many nodes the skewed placement keeps busy depends on the rate,
// so the tests pin it instead of calibrating.
func table7At(mbps float64) (Table, error) {
	sim := cluster.PaperCluster(mbps)
	const paperBytes = 22e9 // Table 1: NYTimes 1M+ records = 22 GB
	sizes := cluster.SplitBytes(paperBytes, 176)

	t := Table{
		Number:  7,
		Caption: fmt.Sprintf("NYTimes on the simulated 6-node cluster (calibrated at %.0f MB/s/core)", mbps),
		Headers: []string{"Placement", "Makespan", "Nodes used", "Utilization", "Remote tasks"},
	}
	for _, p := range []cluster.Placement{cluster.PlaceAllOnOne, cluster.PlaceRoundRobin} {
		rep, err := cluster.Run(sim, cluster.PlaceBlocks(sizes, p, len(sim.Nodes)))
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			p.String(),
			rep.Makespan.Round(time.Second).String(),
			fmt.Sprintf("%d/%d", rep.NodesUsed, len(sim.Nodes)),
			fmt.Sprintf("%.0f%%", 100*rep.Utilization(sim.TotalCores())),
			fmt.Sprintf("%d", rep.RemoteTasks),
		})
	}
	return t, nil
}

// Table8 regenerates "Partition-based processing of NYTimes": four
// partitions processed in isolation on their own nodes, with real
// object and distinct-type counts from the pipeline at the configured
// scale and per-partition times simulated at the paper's full data
// volume (≈300K objects, ≈5.5 GB per partition).
func Table8(cfg Config) (Table, error) {
	mbps, err := MeasureComputeMBps("nytimes", cfg)
	if err != nil {
		return Table{}, err
	}
	sim := cluster.PaperCluster(mbps)

	scales := cfg.scales()
	n := scales[len(scales)-1].N
	perPart := n / 4

	// Real pipeline per partition: partitions are consecutive prefixes
	// of the deterministic stream, like the paper's HDFS partitions.
	g, err := dataset.New("nytimes")
	if err != nil {
		return Table{}, err
	}
	all := dataset.NDJSON(g, n, cfg.seed())
	chunks := splitIntoParts(all, 4)

	t := Table{
		Number:  8,
		Caption: fmt.Sprintf("Partition-based processing of NYTimes (counts at %d records/partition, times simulated at the paper's 22 GB volume)", perPart),
		Headers: []string{"Partition", "Objects", "Types", "Simulated time"},
	}
	// Measure each partition for real, then simulate its processing at
	// the paper's byte volume (22 GB split in proportion to the real
	// partition sizes, ≈5.5 GB each).
	results := make([]PipelineResult, len(chunks))
	var totalBytes int64
	for i, chunk := range chunks {
		res, err := RunPipelineOverNDJSON(context.Background(), chunk, cfg)
		if err != nil {
			return Table{}, err
		}
		results[i] = res
		totalBytes += res.Bytes
	}
	const paperBytes = 22e9
	var totalTime time.Duration
	for i, res := range results {
		scaled := int64(paperBytes * float64(res.Bytes) / float64(totalBytes))
		reports, _, err := cluster.RunPartitioned(cluster.Config{
			Nodes:       sim.Nodes[i : i+1],
			ComputeMBps: sim.ComputeMBps,
			FusePerTask: sim.FusePerTask,
		}, [][]int64{cluster.SplitBytes(scaled, 44)})
		if err != nil {
			return Table{}, err
		}
		totalTime += reports[0].Makespan
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("partition %d", i+1),
			fmt.Sprintf("%d", res.Records),
			fmt.Sprintf("%d", res.DistinctTypes),
			fmtMinutes(reports[0].Makespan),
		})
	}
	avg := totalTime / time.Duration(len(results))
	t.Rows = append(t.Rows, []string{"average", "", "", fmtMinutes(avg)})
	return t, nil
}

// splitIntoParts cuts NDJSON into exactly n line-aligned parts.
func splitIntoParts(data []byte, n int) [][]byte {
	chunks := make([][]byte, 0, n)
	rest := data
	for i := n; i > 1; i-- {
		parts := splitFirst(rest, len(rest)/i)
		chunks = append(chunks, parts[0])
		rest = parts[1]
	}
	return append(chunks, rest)
}

// splitFirst splits data after the first line boundary at or past
// target.
func splitFirst(data []byte, target int) [2][]byte {
	for i := target; i < len(data); i++ {
		if data[i] == '\n' {
			return [2][]byte{data[:i+1], data[i+1:]}
		}
	}
	return [2][]byte{data, nil}
}

func fmtMinutes(d time.Duration) string {
	return fmt.Sprintf("%.1f min", d.Minutes())
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
