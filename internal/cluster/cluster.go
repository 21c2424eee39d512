// Package cluster is a discrete-event simulator of the small Spark/HDFS
// cluster used in the paper's scalability study (Section 6.1: six nodes,
// two 10-core CPUs each, Gigabit interconnect). It models the quantities
// the paper's analysis of Tables 7 and 8 turns on:
//
//   - block placement: HDFS had stored the whole dataset on ONE node, so
//     "the computation was performed on two nodes while the remaining
//     four nodes were idle" — remote tasks are throttled by the source
//     node's network link;
//   - the manual partitioning strategy: spreading partitions across
//     nodes and processing them locally restores parallelism, and thanks
//     to associativity the per-partition schemas are fused at the end at
//     negligible cost.
//
// Time is virtual (simulated seconds), so results are deterministic and
// independent of the host machine. Compute rates are calibrated against
// a real measurement by the experiments harness so the magnitudes stay
// plausible; the claims under test are about the *shape* (who is busy,
// what helps), not absolute seconds.
package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
)

// Node describes one cluster machine.
type Node struct {
	// Name identifies the node in reports.
	Name string
	// Cores is the number of concurrent map tasks the node can run.
	Cores int
	// NetMBps is the node's network bandwidth in megabytes per second;
	// remote readers of blocks stored on this node share it.
	NetMBps float64
	// CrashAt, when positive, fail-stops the node at that virtual time
	// mid-phase: attempts running on it die (their work is lost and the
	// blocks re-execute elsewhere, the retry Spark performs for the
	// paper's pipeline) and the node accepts no further tasks. Zero
	// means the node never crashes. Blocks stored only on a crashed
	// node remain readable — the model crashes compute, not storage —
	// so the job completes whenever any node survives.
	CrashAt time.Duration
}

// Config describes the simulated cluster and its cost model.
type Config struct {
	// Nodes is the machine list. The paper's cluster is six nodes with
	// 20 cores each on Gigabit Ethernet (~120 MB/s).
	Nodes []Node
	// ComputeMBps is the per-core map throughput: how many megabytes of
	// input one core parses and type-infers per second.
	ComputeMBps float64
	// FusePerTask is the reduce-side cost of fusing one map output into
	// the accumulated schema. Fused schemas are tiny compared to the
	// data, which is why the final fusion is cheap (Table 8).
	FusePerTask time.Duration
	// Recorder, when non-nil, receives the simulated job's headline
	// numbers under the cluster_* names of docs/OBSERVABILITY.md. The
	// recorded times are virtual (deterministic), not host timings.
	Recorder obs.Recorder
}

// PaperCluster returns the 6-node configuration of Section 6.1.
// computeMBps is measured on the host by the experiments harness.
func PaperCluster(computeMBps float64) Config {
	nodes := make([]Node, 6)
	for i := range nodes {
		nodes[i] = Node{Name: fmt.Sprintf("node%d", i+1), Cores: 20, NetMBps: 120}
	}
	return Config{Nodes: nodes, ComputeMBps: computeMBps, FusePerTask: 200 * time.Microsecond}
}

// Block is one unit of stored input: a contiguous chunk of records with
// a primary storage node and optional extra replicas (HDFS keeps three
// copies by default).
type Block struct {
	// Bytes is the block size.
	Bytes int64
	// Node is the index of the node storing the primary copy.
	Node int
	// Extra lists nodes holding additional replicas; a task scheduled on
	// any replica's node reads locally.
	Extra []int
}

// replicaOn reports whether the block has a copy on node n.
func (b Block) replicaOn(n int) bool {
	if b.Node == n {
		return true
	}
	for _, e := range b.Extra {
		if e == n {
			return true
		}
	}
	return false
}

// Placement decides where blocks live.
type Placement int

// Placement policies.
const (
	// PlaceAllOnOne stores every block on the first node — what the
	// paper found HDFS had done with the NYTimes dataset.
	PlaceAllOnOne Placement = iota
	// PlaceRoundRobin spreads blocks evenly across nodes — the effect of
	// the paper's manual partitioning strategy.
	PlaceRoundRobin
)

// String names the placement policy.
func (p Placement) String() string {
	switch p {
	case PlaceAllOnOne:
		return "all-on-one-node"
	case PlaceRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// PlaceBlocks assigns storage nodes to blocks of the given sizes, with
// a single copy per block (the effective situation the paper observed).
func PlaceBlocks(sizes []int64, p Placement, numNodes int) []Block {
	return PlaceBlocksReplicated(sizes, p, numNodes, 1)
}

// PlaceBlocksReplicated is PlaceBlocks with an HDFS-style replication
// factor: the primary copy follows the placement policy and the extra
// replicas scatter deterministically across the other nodes, the way
// HDFS spreads replicas for fault tolerance. With replication >= 2 even
// a fully skewed primary placement leaves a local copy of most blocks
// somewhere else — quantifying how much of the paper's Table 7
// pathology depends on the effective replication being 1.
func PlaceBlocksReplicated(sizes []int64, p Placement, numNodes, replicas int) []Block {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > numNodes {
		replicas = numNodes
	}
	blocks := make([]Block, len(sizes))
	for i, sz := range sizes {
		node := 0
		if p == PlaceRoundRobin {
			node = i % numNodes
		}
		b := Block{Bytes: sz, Node: node}
		// Deterministic scatter for the extra copies.
		next := node
		for r := 1; r < replicas; r++ {
			next = (next + 1 + (i*7+r*3)%(numNodes-1)) % numNodes
			for b.replicaOn(next) {
				next = (next + 1) % numNodes
			}
			b.Extra = append(b.Extra, next)
		}
		blocks[i] = b
	}
	return blocks
}

// Report summarizes one simulated job.
type Report struct {
	// Makespan is the virtual end-to-end time, including the final
	// reduce.
	Makespan time.Duration
	// MapTime is the virtual makespan of the map phase alone.
	MapTime time.Duration
	// ReduceTime is the virtual cost of fusing all map outputs.
	ReduceTime time.Duration
	// BusyByNode is each node's total busy core-time.
	BusyByNode []time.Duration
	// NodesUsed counts nodes that ran at least one task.
	NodesUsed int
	// RemoteTasks counts tasks that had to read their block over the
	// network.
	RemoteTasks int
	// RetriedTasks counts map attempts a node crash killed mid-task;
	// each re-executed on a surviving core.
	RetriedTasks int
	// LostTime is the virtual core-time those killed attempts had
	// consumed before dying. BusyByNode counts useful work only, so
	// utilization reflects throughput, not wasted effort.
	LostTime time.Duration
	// CrashedNodes counts nodes configured to fail-stop during the run.
	CrashedNodes int
	// Tasks is the number of map tasks (blocks).
	Tasks int
	// BytesProcessed is the total input size.
	BytesProcessed int64
}

// Utilization is the fraction of total core capacity that was busy
// during the map phase.
func (r Report) Utilization(totalCores int) float64 {
	if r.MapTime <= 0 || totalCores == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range r.BusyByNode {
		busy += b
	}
	return float64(busy) / (float64(r.MapTime) * float64(totalCores))
}

// Run simulates a map-reduce schema-inference job over the blocks.
//
// Scheduling is locality-first greedy: whenever a core frees, it takes a
// block stored on its own node if any remain, otherwise it fetches a
// remote block through the storing node's network link, which serializes
// concurrent remote reads — the bottleneck that leaves most of the
// cluster idle under PlaceAllOnOne.
func Run(cfg Config, blocks []Block) (Report, error) {
	if len(cfg.Nodes) == 0 {
		return Report{}, fmt.Errorf("cluster: no nodes configured")
	}
	if cfg.ComputeMBps <= 0 {
		return Report{}, fmt.Errorf("cluster: ComputeMBps must be positive, got %v", cfg.ComputeMBps)
	}
	for _, b := range blocks {
		if b.Node < 0 || b.Node >= len(cfg.Nodes) {
			return Report{}, fmt.Errorf("cluster: block stored on unknown node %d", b.Node)
		}
		for _, e := range b.Extra {
			if e < 0 || e >= len(cfg.Nodes) {
				return Report{}, fmt.Errorf("cluster: block replica on unknown node %d", e)
			}
		}
	}

	// Per-node pending local block lists (indices into blocks). A block
	// appears in the list of every node holding a replica; the taken set
	// prunes duplicates lazily.
	pending := make([][]int, len(cfg.Nodes))
	for i, b := range blocks {
		pending[b.Node] = append(pending[b.Node], i)
		for _, e := range b.Extra {
			pending[e] = append(pending[e], i)
		}
	}
	taken := make([]bool, len(blocks))
	// headOf returns the first not-yet-taken block pending on node n, or
	// -1, pruning consumed entries as a side effect.
	headOf := func(n int) int {
		for len(pending[n]) > 0 {
			idx := pending[n][0]
			if taken[idx] {
				pending[n] = pending[n][1:]
				continue
			}
			return idx
		}
		return -1
	}
	remaining := len(blocks)

	// Core state: next-free virtual time per core, grouped by node.
	type core struct {
		node int
		free float64 // seconds
	}
	var cores []core
	for n, node := range cfg.Nodes {
		for c := 0; c < node.Cores; c++ {
			cores = append(cores, core{node: n})
		}
	}
	nicFree := make([]float64, len(cfg.Nodes)) // per-node outgoing link

	// Per-node fail-stop times in virtual seconds (+Inf = healthy).
	crash := make([]float64, len(cfg.Nodes))
	crashedNodes := 0
	for n, node := range cfg.Nodes {
		crash[n] = math.Inf(1)
		if node.CrashAt > 0 {
			crash[n] = node.CrashAt.Seconds()
			crashedNodes++
		}
	}

	busy := make([]float64, len(cfg.Nodes))
	var makespan float64
	var bytes int64
	var lost float64
	remote := 0
	retried := 0

	// Earliest-completion-time list scheduling: each step commits one
	// block to the (core, block) pair that finishes soonest, accounting
	// for the source node's link when the read is remote. Ties break by
	// core index, so under skewed placement remote work concentrates on
	// the lowest-indexed remote node instead of trickling onto every
	// node — reproducing the paper's observation that the computation
	// ran on two nodes while the rest stayed idle.
	for remaining > 0 {
		bestCore, bestSrc := -1, -1
		var bestStart, bestEnd float64
		for ci := range cores {
			c := &cores[ci]
			// A core whose node has fail-stopped by its free time can
			// never run another task.
			if c.free >= crash[c.node] {
				continue
			}
			// Candidate block for this core: a local replica if any
			// remain, otherwise one from the node with the most pending
			// blocks.
			src := -1
			if headOf(c.node) >= 0 {
				src = c.node
			} else {
				for n := range pending {
					if headOf(n) >= 0 && (src < 0 || len(pending[n]) > len(pending[src])) {
						src = n
					}
				}
			}
			if src < 0 {
				break // nothing pending anywhere
			}
			b := blocks[headOf(src)]
			start := c.free
			if src != c.node {
				xferStart := start
				if nicFree[src] > xferStart {
					xferStart = nicFree[src]
				}
				start = xferStart + float64(b.Bytes)/(cfg.Nodes[src].NetMBps*1e6)
			}
			end := start + float64(b.Bytes)/(cfg.ComputeMBps*1e6)
			if bestCore < 0 || end < bestEnd {
				bestCore, bestSrc, bestStart, bestEnd = ci, src, start, end
			}
		}
		if bestCore < 0 {
			// No usable core is left: every node with live cores has
			// crashed (or, defensively, remaining disagreed with the
			// pending lists).
			return Report{}, fmt.Errorf("cluster: %d of %d blocks unprocessed: no usable cores remain", remaining, len(blocks))
		}

		c := &cores[bestCore]
		// The scheduler cannot see the future: if the chosen core's node
		// fail-stops before the attempt completes, the attempt dies at
		// the crash instant, its work is lost, the block stays pending
		// (to be re-executed on a surviving core), and the core is dead
		// from then on. Work that would start after the crash dies
		// immediately at no cost.
		if tc := crash[c.node]; bestEnd > tc {
			if bestStart < tc {
				retried++
				lost += tc - bestStart
				if tc > makespan {
					makespan = tc
				}
			}
			c.free = math.Inf(1)
			continue
		}
		blockIdx := headOf(bestSrc)
		taken[blockIdx] = true
		remaining--
		b := blocks[blockIdx]
		bytes += b.Bytes

		if bestSrc != c.node {
			remote++
			// The transfer ends when the task can start.
			nicFree[bestSrc] = bestStart
		}
		dur := float64(b.Bytes) / (cfg.ComputeMBps * 1e6)
		c.free = bestEnd
		busy[c.node] += dur
		if bestEnd > makespan {
			makespan = bestEnd
		}
	}

	rep := Report{
		MapTime:        secs(makespan),
		ReduceTime:     time.Duration(len(blocks)) * cfg.FusePerTask,
		BusyByNode:     make([]time.Duration, len(cfg.Nodes)),
		Tasks:          len(blocks),
		BytesProcessed: bytes,
		RemoteTasks:    remote,
		RetriedTasks:   retried,
		LostTime:       secs(lost),
		CrashedNodes:   crashedNodes,
	}
	rep.Makespan = rep.MapTime + rep.ReduceTime
	for n, b := range busy {
		rep.BusyByNode[n] = secs(b)
		if b > 0 {
			rep.NodesUsed++
		}
	}
	if rec := cfg.Recorder; rec != nil {
		// The _virtual suffix (not _ns) marks these as simulated clock
		// readings in nanoseconds: deterministic for a fixed
		// configuration, so they must survive Metrics.WithoutTimings.
		rec.Add("cluster_tasks", int64(rep.Tasks))
		rec.Add("cluster_remote_tasks", int64(rep.RemoteTasks))
		rec.Add("cluster_bytes", rep.BytesProcessed)
		rec.Set("cluster_nodes_used", int64(rep.NodesUsed))
		rec.Set("cluster_makespan_virtual", int64(rep.Makespan))
		rec.Set("cluster_map_virtual", int64(rep.MapTime))
		rec.Set("cluster_reduce_virtual", int64(rep.ReduceTime))
		rec.Set("cluster_utilization_virtual", int64(1000*rep.Utilization(cfg.TotalCores())))
		// Fault-handling metrics (stripped by Metrics.WithoutFaults):
		// crash-killed attempts and the virtual core-time they wasted.
		rec.Add("cluster_retried_tasks", int64(rep.RetriedTasks))
		rec.Set("cluster_crashed_nodes", int64(rep.CrashedNodes))
		rec.Set("cluster_retry_lost_virtual", int64(rep.LostTime))
	}
	return rep, nil
}

// RunPartitioned simulates the paper's manual strategy (Table 8): each
// partition is a group of blocks processed entirely on its own node
// ("each partition of data is processed in isolation"), and the
// resulting schemas are fused at the end. It returns one report per
// partition plus the final fusion time.
func RunPartitioned(cfg Config, partitions [][]int64) ([]Report, time.Duration, error) {
	if len(partitions) > len(cfg.Nodes) {
		return nil, 0, fmt.Errorf("cluster: %d partitions exceed %d nodes", len(partitions), len(cfg.Nodes))
	}
	reports := make([]Report, len(partitions))
	for i, sizes := range partitions {
		// A single-node sub-cluster runs the partition locally.
		sub := Config{Nodes: []Node{cfg.Nodes[i]}, ComputeMBps: cfg.ComputeMBps, FusePerTask: cfg.FusePerTask}
		blocks := PlaceBlocks(sizes, PlaceAllOnOne, 1)
		rep, err := Run(sub, blocks)
		if err != nil {
			return nil, 0, fmt.Errorf("partition %d: %w", i, err)
		}
		reports[i] = rep
	}
	// Final fusion of one small schema per partition.
	finalFuse := time.Duration(len(partitions)) * cfg.FusePerTask
	return reports, finalFuse, nil
}

// TotalCores sums the cores of all nodes.
func (c Config) TotalCores() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.Cores
	}
	return total
}

// SplitBytes cuts a total size into n roughly equal block sizes.
func SplitBytes(total int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	out := make([]int64, n)
	base := total / int64(n)
	rem := total - base*int64(n)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// secs converts simulated seconds to a time.Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
