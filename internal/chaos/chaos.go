// Package chaos is the repository's fault-injection harness: it turns
// the fusion laws (commutativity and associativity of type fusion,
// Theorems 5.4 and 5.5 of the paper) into an executable crash-safety
// oracle for the map-reduce engine.
//
// The paper's pipeline inherits fault tolerance from Spark, which
// transparently re-executes failed tasks; re-execution is correct
// exactly because fusion is a commutative monoid, so outputs may meet
// the reduction in any order and any multiplicity of retries. The
// hand-rolled engine in internal/mapreduce makes the same bet, and
// this package collects the evidence: a Plan expands a seed into a
// deterministic schedule of transient errors, permanent errors and
// artificial stragglers keyed by task sequence number, and the tests
// next to this file replay hundreds of such schedules against a
// no-fault reference run, asserting byte-identical schemas whenever
// the failure policy permits completion.
//
// Everything is a pure function of the seed: the same Plan injects the
// same faults into the same tasks on every run, on every machine, so a
// failing schedule reproduces from its seed alone. See docs/FAULTS.md
// for how to run and extend the harness.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mapreduce"
)

// ErrInjected is the root of every transient fault this package
// injects; match it with errors.Is.
var ErrInjected = errors.New("chaos: injected transient fault")

// ErrInjectedPermanent is the root of every permanent fault this
// package injects. It is wrapped with mapreduce.Permanent, so the
// retry machinery gives up on the task immediately.
var ErrInjectedPermanent = errors.New("chaos: injected permanent fault")

// Plan parameterizes a deterministic failure schedule. The zero Plan
// injects nothing; DefaultPlan returns the mix the harness tests use.
// All probabilities are in [0, 1] and are consumed via the seed, so
// two Plans with equal fields inject identical faults.
type Plan struct {
	// Seed selects the schedule; every other field shapes it.
	Seed int64
	// PFault is the probability that a task is faulty at all.
	PFault float64
	// MaxTransient bounds the consecutive transient faults a faulty
	// task suffers before succeeding: each faulty task fails its first
	// 1..MaxTransient attempts. A retry budget of at least MaxTransient
	// therefore always reaches the successful attempt.
	MaxTransient int
	// PStraggle is the probability that a faulty task's attempts are
	// also delayed (artificial stragglers).
	PStraggle float64
	// MaxDelay bounds the straggler delay; zero disables delays even
	// when PStraggle fires.
	MaxDelay time.Duration
	// PPermanent is the probability that a faulty task's fault is
	// permanent instead of transient: every attempt fails with a
	// mapreduce.Permanent error. Such tasks can only complete a run
	// under the Skip policy, which quarantines them.
	PPermanent float64
}

// DefaultPlan returns a transient-only plan: roughly 40% of tasks fail
// their first one or two attempts, a quarter of those straggle briefly
// first, and none fail permanently — so a Retry policy with budget >=
// MaxTransient always completes.
func DefaultPlan(seed int64) Plan {
	return Plan{
		Seed:         seed,
		PFault:       0.4,
		MaxTransient: 2,
		PStraggle:    0.25,
		MaxDelay:     200 * time.Microsecond,
	}
}

// taskFate is the per-task expansion of the plan.
type taskFate struct {
	permanent bool
	transient int // attempts 0..transient-1 fail
	delay     time.Duration
}

// fate derives a task's fate from the seed — a pure function, so the
// schedule is identical on every run and can be consulted both by the
// injector and by tests predicting outcomes.
func (p Plan) fate(seq int) taskFate {
	h := mix64(uint64(p.Seed) ^ mix64(uint64(seq)))
	if !coin(h, p.PFault) {
		return taskFate{}
	}
	var f taskFate
	h2 := mix64(h)
	if coin(h2, p.PPermanent) {
		f.permanent = true
		return f
	}
	if p.MaxTransient > 0 {
		f.transient = 1 + int(mix64(h2+1)%uint64(p.MaxTransient))
	}
	if p.MaxDelay > 0 && coin(mix64(h2+2), p.PStraggle) {
		f.delay = time.Duration(mix64(h2+3) % uint64(p.MaxDelay))
	}
	return f
}

// Fault is the raw schedule lookup: what the plan injects into attempt
// `attempt` (0-based) of task `seq`.
func (p Plan) Fault(seq, attempt int) (delay time.Duration, err error) {
	f := p.fate(seq)
	if f.permanent {
		return 0, mapreduce.Permanent(fmt.Errorf("%w: task %d", ErrInjectedPermanent, seq))
	}
	if attempt < f.transient {
		return f.delay, fmt.Errorf("%w: task %d attempt %d", ErrInjected, seq, attempt)
	}
	return 0, nil
}

// Injector adapts the plan to the engine's hook.
func (p Plan) Injector() mapreduce.FaultInjector {
	return func(seq, attempt int) mapreduce.Fault {
		delay, err := p.Fault(seq, attempt)
		return mapreduce.Fault{Delay: delay, Err: err}
	}
}

// PermanentTasks returns how many of the first n tasks the plan fails
// permanently — the number a Skip-policy run over n tasks quarantines.
func (p Plan) PermanentTasks(n int) int {
	count := 0
	for seq := 0; seq < n; seq++ {
		if p.fate(seq).permanent {
			count++
		}
	}
	return count
}

// FaultyTasks returns how many of the first n tasks fail at least one
// attempt.
func (p Plan) FaultyTasks(n int) int {
	count := 0
	for seq := 0; seq < n; seq++ {
		f := p.fate(seq)
		if f.permanent || f.transient > 0 {
			count++
		}
	}
	return count
}

// coin maps a hash to a biased coin flip with probability prob.
func coin(h uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	// Use the top 53 bits for an unbiased float in [0, 1).
	return float64(h>>11)/float64(1<<53) < prob
}

// mix64 is the splitmix64 finalizer, the same mix the engine uses for
// its deterministic backoff jitter.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
