// Package shard is the substrate of the multi-session delivery core:
// a fixed pool of worker shards draining per-shard FIFO run queues
// (Pool/Task) and a sharded session registry (Registry).
//
// The design goal is that an idle session costs zero goroutines: a
// session is a Task that only occupies a run queue while it has work,
// so goroutine count is O(shards) — one worker per shard — regardless
// of how many sessions are registered. Timers are not this package's
// business: a session books Go runtime timers whose callbacks only
// wake its task.
package shard

// Options configures a Scheduler.
type Options struct {
	// Shards is the number of run-queue workers, and of registry
	// shards. 0 means DefaultShards.
	Shards int

	// OnTaskWait and OnTaskRun, when set, observe each task run's queue
	// wait and execution time in nanoseconds (telemetry hooks). They
	// run on the worker goroutines, so they must be cheap and
	// concurrency-safe.
	OnTaskWait func(ns int64)
	OnTaskRun  func(ns int64)
}

// DefaultShards is deliberately small: workers are CPU-bound flush
// pumps, so a handful saturate the machine long before contention
// does. Callers hosting many cores' worth of desktops raise it.
const DefaultShards = 4

// Scheduler bundles a worker pool and a session registry — the pieces
// every host of a Fleet shares.
type Scheduler struct {
	pool *Pool
	reg  *Registry
}

// NewScheduler builds and starts a scheduler.
func NewScheduler(o Options) *Scheduler {
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	s := &Scheduler{
		pool: NewPool(o.Shards),
		reg:  NewRegistry(o.Shards),
	}
	s.pool.OnWait = o.OnTaskWait
	s.pool.OnRun = o.OnTaskRun
	s.pool.Start()
	return s
}

// Pool returns the worker pool.
func (s *Scheduler) Pool() *Pool { return s.pool }

// Registry returns the session registry.
func (s *Scheduler) Registry() *Registry { return s.reg }

// Close stops the workers. Outstanding queued tasks are drained (run
// or skipped if closed) before workers exit.
func (s *Scheduler) Close() { s.pool.Stop() }
