package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testCluster is a small 6-node cluster with a deliberately modest
// network so locality effects are visible.
func testCluster() Config {
	return PaperCluster(30) // 30 MB/s per core
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Nodes: []Node{{Cores: 1, NetMBps: 100}}}, nil); err == nil {
		t.Error("zero compute rate accepted")
	}
	cfg := testCluster()
	if _, err := Run(cfg, []Block{{Bytes: 1, Node: 99}}); err == nil {
		t.Error("block on unknown node accepted")
	}
}

func TestRunEmptyJob(t *testing.T) {
	rep, err := Run(testCluster(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 0 || rep.Makespan != 0 || rep.NodesUsed != 0 {
		t.Errorf("empty job report = %+v", rep)
	}
}

func TestSingleBlockSingleNode(t *testing.T) {
	cfg := Config{
		Nodes:       []Node{{Name: "n", Cores: 4, NetMBps: 100}},
		ComputeMBps: 10,
	}
	// 100 MB at 10 MB/s = 10 s on one core.
	rep, err := Run(cfg, []Block{{Bytes: 100e6, Node: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.MapTime, 10*time.Second; got != want {
		t.Errorf("MapTime = %v, want %v", got, want)
	}
	if rep.NodesUsed != 1 || rep.RemoteTasks != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestParallelismAcrossCores(t *testing.T) {
	cfg := Config{
		Nodes:       []Node{{Name: "n", Cores: 4, NetMBps: 100}},
		ComputeMBps: 10,
	}
	// 8 blocks of 10 MB: 2 waves on 4 cores = 2 s.
	blocks := PlaceBlocks(SplitBytes(80e6, 8), PlaceAllOnOne, 1)
	rep, err := Run(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.MapTime, 2*time.Second; got != want {
		t.Errorf("MapTime = %v, want %v", got, want)
	}
}

func TestSkewedPlacementUnderusesCluster(t *testing.T) {
	// The Table 7 phenomenon: all blocks on one node leaves most of the
	// cluster idle, because remote readers share the source node's link.
	cfg := testCluster()
	sizes := SplitBytes(22e9, 128) // ~22 GB, the NYTimes dataset
	skewed, err := Run(cfg, PlaceBlocks(sizes, PlaceAllOnOne, len(cfg.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	spread, err := Run(cfg, PlaceBlocks(sizes, PlaceRoundRobin, len(cfg.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Makespan <= spread.Makespan {
		t.Errorf("skewed %v should be slower than spread %v", skewed.Makespan, spread.Makespan)
	}
	// Most of the work lands on the storing node under skew.
	var busiest, total time.Duration
	for _, b := range skewed.BusyByNode {
		busiest = max(busiest, b)
		total += b
	}
	if float64(busiest)/float64(total) < 0.5 {
		t.Errorf("busiest node carries only %.0f%% of the work under skew", 100*float64(busiest)/float64(total))
	}
	// The paper: "the computation was performed on two nodes while the
	// remaining four nodes were idle".
	if skewed.NodesUsed > 3 {
		t.Errorf("skewed placement kept %d nodes busy, expected ~2", skewed.NodesUsed)
	}
	// Spreading uses every node and improves utilization.
	if spread.NodesUsed != len(cfg.Nodes) {
		t.Errorf("round-robin used %d nodes", spread.NodesUsed)
	}
	if su, ku := spread.Utilization(cfg.TotalCores()), skewed.Utilization(cfg.TotalCores()); su <= ku {
		t.Errorf("utilization did not improve: spread %.2f vs skewed %.2f", su, ku)
	}
}

func TestRemoteTasksCounted(t *testing.T) {
	cfg := testCluster()
	sizes := SplitBytes(6e9, 64)
	rep, err := Run(cfg, PlaceBlocks(sizes, PlaceAllOnOne, len(cfg.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemoteTasks == 0 {
		t.Error("no remote tasks under all-on-one placement")
	}
	local, err := Run(cfg, PlaceBlocks(sizes, PlaceRoundRobin, len(cfg.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	if local.RemoteTasks > rep.RemoteTasks {
		t.Errorf("round-robin has more remote tasks (%d) than skewed (%d)", local.RemoteTasks, rep.RemoteTasks)
	}
}

func TestReduceTimeNegligible(t *testing.T) {
	// Fusing per-task schemas is "a fast operation as each schema to
	// fuse has a very small size" (Section 6.2).
	cfg := testCluster()
	sizes := SplitBytes(22e9, 128)
	rep, err := Run(cfg, PlaceBlocks(sizes, PlaceRoundRobin, len(cfg.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(rep.ReduceTime) / float64(rep.Makespan); frac > 0.05 {
		t.Errorf("reduce is %.1f%% of the makespan, should be negligible", frac*100)
	}
}

func TestRunPartitioned(t *testing.T) {
	cfg := testCluster()
	// Four partitions in the style of Table 8.
	parts := [][]int64{
		SplitBytes(5200e6, 16),
		SplitBytes(5500e6, 16),
		SplitBytes(5500e6, 16),
		SplitBytes(5500e6, 16),
	}
	reports, finalFuse, err := RunPartitioned(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("got %d reports", len(reports))
	}
	for i, rep := range reports {
		if rep.RemoteTasks != 0 {
			t.Errorf("partition %d read remotely", i)
		}
		if rep.NodesUsed != 1 {
			t.Errorf("partition %d used %d nodes", i, rep.NodesUsed)
		}
		if rep.MapTime <= 0 {
			t.Errorf("partition %d has zero map time", i)
		}
	}
	// The final fusion is vastly cheaper than any partition.
	if finalFuse >= reports[0].MapTime/100 {
		t.Errorf("final fuse %v not negligible vs %v", finalFuse, reports[0].MapTime)
	}
	// Partition times are commensurate (same data volume, same rate).
	if reports[1].MapTime != reports[2].MapTime {
		t.Errorf("equal partitions got different times: %v vs %v", reports[1].MapTime, reports[2].MapTime)
	}
}

func TestRunPartitionedTooManyPartitions(t *testing.T) {
	cfg := testCluster()
	parts := make([][]int64, len(cfg.Nodes)+1)
	for i := range parts {
		parts[i] = []int64{1000}
	}
	if _, _, err := RunPartitioned(cfg, parts); err == nil {
		t.Error("more partitions than nodes accepted")
	}
}

func TestSplitBytes(t *testing.T) {
	sizes := SplitBytes(10, 3)
	if len(sizes) != 3 || sizes[0]+sizes[1]+sizes[2] != 10 {
		t.Errorf("SplitBytes = %v", sizes)
	}
	for _, s := range sizes {
		if s < 3 || s > 4 {
			t.Errorf("uneven split: %v", sizes)
		}
	}
	if SplitBytes(10, 0) != nil {
		t.Error("SplitBytes(_, 0) should be nil")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testCluster()
	sizes := SplitBytes(7e9, 77)
	a, err := Run(cfg, PlaceBlocks(sizes, PlaceAllOnOne, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, PlaceBlocks(sizes, PlaceAllOnOne, 6))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.RemoteTasks != b.RemoteTasks {
		t.Error("simulation is not deterministic")
	}
}

func TestMoreComputeShortensJob(t *testing.T) {
	sizes := SplitBytes(10e9, 64)
	slow, err := Run(PaperCluster(10), PlaceBlocks(sizes, PlaceRoundRobin, 6))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(PaperCluster(40), PlaceBlocks(sizes, PlaceRoundRobin, 6))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Makespan >= slow.Makespan {
		t.Errorf("4x compute rate did not shorten the job: %v vs %v", fast.Makespan, slow.Makespan)
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceAllOnOne.String() != "all-on-one-node" || PlaceRoundRobin.String() != "round-robin" {
		t.Error("placement names wrong")
	}
	if s := Placement(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown placement = %q", s)
	}
}

func TestUtilizationBounds(t *testing.T) {
	cfg := testCluster()
	rep, err := Run(cfg, PlaceBlocks(SplitBytes(12e9, 120), PlaceRoundRobin, 6))
	if err != nil {
		t.Fatal(err)
	}
	u := rep.Utilization(cfg.TotalCores())
	if u <= 0 || u > 1.0001 {
		t.Errorf("utilization = %v out of range", u)
	}
	if (Report{}).Utilization(cfg.TotalCores()) != 0 {
		t.Error("empty report utilization should be 0")
	}
}

func TestReplicationValidation(t *testing.T) {
	cfg := testCluster()
	if _, err := Run(cfg, []Block{{Bytes: 1, Node: 0, Extra: []int{99}}}); err == nil {
		t.Error("replica on unknown node accepted")
	}
}

func TestPlaceBlocksReplicated(t *testing.T) {
	blocks := PlaceBlocksReplicated(SplitBytes(6e9, 30), PlaceAllOnOne, 6, 3)
	for i, b := range blocks {
		if b.Node != 0 {
			t.Fatalf("block %d primary on node %d", i, b.Node)
		}
		if len(b.Extra) != 2 {
			t.Fatalf("block %d has %d extra replicas", i, len(b.Extra))
		}
		seen := map[int]bool{b.Node: true}
		for _, e := range b.Extra {
			if seen[e] {
				t.Fatalf("block %d has duplicate replica node %d", i, e)
			}
			seen[e] = true
		}
	}
	// Replication factor is clamped to the node count and to >= 1.
	if got := PlaceBlocksReplicated(SplitBytes(1e6, 2), PlaceAllOnOne, 3, 9); len(got[0].Extra) != 2 {
		t.Errorf("replicas not clamped to node count: %d extras", len(got[0].Extra))
	}
	if got := PlaceBlocksReplicated(SplitBytes(1e6, 2), PlaceAllOnOne, 3, 0); len(got[0].Extra) != 0 {
		t.Errorf("replicas not clamped to 1: %d extras", len(got[0].Extra))
	}
}

func TestReplicationRescuesSkewedPlacement(t *testing.T) {
	// The Table 7 pathology presumes an effective replication factor of
	// 1: with HDFS's default 3 copies, most blocks have a local replica
	// somewhere even when every primary sits on one node.
	cfg := testCluster()
	sizes := SplitBytes(22e9, 128)
	var makespans []time.Duration
	var nodesUsed []int
	for _, k := range []int{1, 2, 3} {
		rep, err := Run(cfg, PlaceBlocksReplicated(sizes, PlaceAllOnOne, len(cfg.Nodes), k))
		if err != nil {
			t.Fatal(err)
		}
		makespans = append(makespans, rep.Makespan)
		nodesUsed = append(nodesUsed, rep.NodesUsed)
	}
	if !(makespans[1] < makespans[0] && makespans[2] <= makespans[1]) {
		t.Errorf("makespans not improving with replication: %v", makespans)
	}
	if nodesUsed[2] <= nodesUsed[0] {
		t.Errorf("replication did not spread the work: %v", nodesUsed)
	}
	// At 3x the skew penalty is mostly gone: within 1.5x of the
	// round-robin ideal.
	ideal, err := Run(cfg, PlaceBlocks(sizes, PlaceRoundRobin, len(cfg.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	if float64(makespans[2]) > 1.5*float64(ideal.Makespan) {
		t.Errorf("3x replication still %.1fx slower than ideal", float64(makespans[2])/float64(ideal.Makespan))
	}
}

func TestRecorderObservesSimulation(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := PaperCluster(30)
	cfg.Recorder = reg
	rep, err := Run(cfg, PlaceBlocks(SplitBytes(1e9, 16), PlaceRoundRobin, len(cfg.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	m := reg.Snapshot()
	if m.Counters["cluster_tasks"] != int64(rep.Tasks) {
		t.Errorf("cluster_tasks = %d, want %d", m.Counters["cluster_tasks"], rep.Tasks)
	}
	if m.Gauges["cluster_makespan_virtual"] != int64(rep.Makespan) {
		t.Errorf("cluster_makespan_virtual = %d, want %d", m.Gauges["cluster_makespan_virtual"], rep.Makespan)
	}
	if m.Gauges["cluster_nodes_used"] != int64(rep.NodesUsed) {
		t.Errorf("cluster_nodes_used = %d, want %d", m.Gauges["cluster_nodes_used"], rep.NodesUsed)
	}
	// Virtual readings are deterministic and must survive the timing
	// filter.
	if _, ok := m.WithoutTimings().Gauges["cluster_makespan_virtual"]; !ok {
		t.Error("virtual makespan stripped by WithoutTimings")
	}
}

func TestNodeCrashRetriesTasksElsewhere(t *testing.T) {
	// Two 2-core nodes, blocks spread round-robin. Node 1 fail-stops
	// mid-phase: its in-flight attempts die, their blocks re-execute on
	// node 0, and every byte is still processed.
	cfg := Config{
		Nodes: []Node{
			{Name: "a", Cores: 2, NetMBps: 100},
			{Name: "b", Cores: 2, NetMBps: 100, CrashAt: 5 * time.Second},
		},
		ComputeMBps: 10,
	}
	// Eight 100 MB blocks: 10 s each on a core, so node b's attempts
	// are guaranteed to be running when it crashes at t=5s.
	sizes := make([]int64, 8)
	for i := range sizes {
		sizes[i] = 100e6
	}
	blocks := PlaceBlocks(sizes, PlaceRoundRobin, 2)
	var total int64
	for _, b := range blocks {
		total += b.Bytes
	}
	rep, err := Run(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesProcessed != total {
		t.Errorf("BytesProcessed = %d, want %d: crash lost data", rep.BytesProcessed, total)
	}
	if rep.RetriedTasks == 0 {
		t.Error("RetriedTasks = 0, want > 0: node b crashed with tasks in flight")
	}
	if rep.LostTime <= 0 {
		t.Errorf("LostTime = %v, want > 0", rep.LostTime)
	}
	if rep.CrashedNodes != 1 {
		t.Errorf("CrashedNodes = %d, want 1", rep.CrashedNodes)
	}

	// The same job on a healthy cluster is strictly faster and loses
	// nothing.
	healthy := cfg
	healthy.Nodes = []Node{
		{Name: "a", Cores: 2, NetMBps: 100},
		{Name: "b", Cores: 2, NetMBps: 100},
	}
	href, err := Run(healthy, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if href.RetriedTasks != 0 || href.LostTime != 0 || href.CrashedNodes != 0 {
		t.Errorf("healthy run reports fault handling: %+v", href)
	}
	if rep.Makespan <= href.Makespan {
		t.Errorf("crashed makespan %v should exceed healthy makespan %v", rep.Makespan, href.Makespan)
	}
}

func TestNodeCrashDeterministic(t *testing.T) {
	cfg := testCluster()
	cfg.Nodes[2].CrashAt = 3 * time.Second
	blocks := PlaceBlocks(SplitBytes(5e9, 40), PlaceRoundRobin, len(cfg.Nodes))
	first, err := Run(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Run(cfg, blocks)
		if err != nil {
			t.Fatal(err)
		}
		if again.Makespan != first.Makespan || again.RetriedTasks != first.RetriedTasks || again.LostTime != first.LostTime {
			t.Fatalf("run %d differs: %+v vs %+v", i, again, first)
		}
	}
}

func TestAllNodesCrashedFailsJob(t *testing.T) {
	cfg := Config{
		Nodes: []Node{
			{Name: "a", Cores: 1, NetMBps: 100, CrashAt: time.Second},
			{Name: "b", Cores: 1, NetMBps: 100, CrashAt: 2 * time.Second},
		},
		ComputeMBps: 10,
	}
	// 100 MB = 10 s per block: no block can finish before every node dies.
	_, err := Run(cfg, PlaceBlocks([]int64{100e6, 100e6}, PlaceRoundRobin, 2))
	if err == nil {
		t.Fatal("job with every node crashed should fail")
	}
	if !strings.Contains(err.Error(), "unprocessed") {
		t.Errorf("err = %v, should count unprocessed blocks", err)
	}
}

func TestCrashMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		Nodes: []Node{
			{Name: "a", Cores: 2, NetMBps: 100},
			{Name: "b", Cores: 2, NetMBps: 100, CrashAt: 5 * time.Second},
		},
		ComputeMBps: 10,
		Recorder:    reg,
	}
	sizes := make([]int64, 8)
	for i := range sizes {
		sizes[i] = 100e6
	}
	rep, err := Run(cfg, PlaceBlocks(sizes, PlaceRoundRobin, 2))
	if err != nil {
		t.Fatal(err)
	}
	m := reg.Snapshot()
	if got := m.Counters["cluster_retried_tasks"]; got != int64(rep.RetriedTasks) {
		t.Errorf("cluster_retried_tasks = %d, want %d", got, rep.RetriedTasks)
	}
	if got := m.Gauges["cluster_crashed_nodes"]; got != 1 {
		t.Errorf("cluster_crashed_nodes = %d, want 1", got)
	}
	if got := m.Gauges["cluster_retry_lost_virtual"]; got != int64(rep.LostTime) {
		t.Errorf("cluster_retry_lost_virtual = %d, want %d", got, rep.LostTime)
	}
	// Fault metrics survive WithoutTimings (they are deterministic
	// virtual readings) but are stripped by WithoutFaults.
	kept := m.WithoutTimings()
	if _, ok := kept.Gauges["cluster_retry_lost_virtual"]; !ok {
		t.Error("cluster_retry_lost_virtual stripped by WithoutTimings")
	}
	stripped := kept.WithoutFaults()
	for _, name := range []string{"cluster_retried_tasks"} {
		if _, ok := stripped.Counters[name]; ok {
			t.Errorf("%s survived WithoutFaults", name)
		}
	}
	if _, ok := stripped.Gauges["cluster_crashed_nodes"]; ok {
		t.Error("cluster_crashed_nodes survived WithoutFaults")
	}
	if _, ok := stripped.Gauges["cluster_retry_lost_virtual"]; ok {
		t.Error("cluster_retry_lost_virtual survived WithoutFaults")
	}
}
