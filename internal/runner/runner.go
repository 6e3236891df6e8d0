// Package runner is the deterministic parallel batch executor behind every
// multi-run driver (cmd/experiments with its figures and sweeps, protocheck
// -audit, the audited fuzz sweep): it fans a slice of independent tasks across a bounded
// worker pool and returns their outcomes in submission order, so aggregated
// output is byte-identical regardless of worker count.
//
// Determinism contract (DESIGN.md invariant 7 extended to batches):
//
//   - tasks never share mutable state — each builds its own platform, and the
//     simulation kernel keeps no package-level mutable state;
//   - outcomes are aggregated by task index, not completion order;
//   - stochastic tasks derive their seed with DeriveSeed(base, index), a pure
//     function of the batch seed and the task's position.
//
// A panicking task is captured per worker: it fails only its own outcome,
// wrapped in *PanicError with the stack.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Task is one independent unit of a batch.  Run must not share mutable state
// with any other task in the batch.
type Task[T any] struct {
	// Label names the task in errors and reports.
	Label string
	// Run produces the task's value.
	Run func() (T, error)
}

// Options tunes Execute; the zero value runs on GOMAXPROCS workers.
type Options struct {
	// Jobs is the worker count; <= 0 selects runtime.GOMAXPROCS(0).
	Jobs int
}

// Outcome is the result of one task, reported at the task's submission index.
type Outcome[T any] struct {
	// Label echoes the task's label.
	Label string
	// Value is the task's result (zero on error).
	Value T
	// Err is the task's error, or a *PanicError if it panicked.
	Err error
	// Elapsed is the task's wall-clock duration.
	Elapsed time.Duration
}

// PanicError is a panic captured inside a task.
type PanicError struct {
	// Label is the panicking task's label.
	Label string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: task %q panicked: %v", e.Label, e.Value)
}

// Execute runs the batch and returns one outcome per task, in task order.
// Workers pull task indices from a bounded queue; a failing (or panicking)
// task never affects its siblings.
func Execute[T any](tasks []Task[T], opts Options) []Outcome[T] {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(tasks) {
		jobs = len(tasks)
	}
	out := make([]Outcome[T], len(tasks))
	if len(tasks) == 0 {
		return out
	}

	// The queue is bounded to the worker count: the feeder blocks instead of
	// buffering the whole batch, keeping memory flat for very large sweeps.
	queue := make(chan int, jobs)
	go func() {
		for i := range tasks {
			queue <- i
		}
		close(queue)
	}()

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i] = runOne(tasks[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// runOne executes a single task, capturing panics and timing it.
func runOne[T any](task Task[T]) Outcome[T] {
	start := time.Now()
	o := Outcome[T]{Label: task.Label}
	o.Value, o.Err = protect(task)
	o.Elapsed = time.Since(start)
	return o
}

// protect invokes the task with panic capture.
func protect[T any](task Task[T]) (value T, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Label: task.Label, Value: r, Stack: string(buf)}
		}
	}()
	return task.Run()
}

// DeriveSeed derives the per-task seed for task index from a batch base seed:
// one SplitMix64 step over base ^ index.  It is a pure function, so a batch
// re-run with any worker count reproduces identical per-task seeds, and
// distinct indices get well-separated streams even for small bases.
func DeriveSeed(base uint64, index int) uint64 {
	z := base ^ (uint64(index+1) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		// Zero means "use the default seed" throughout the workload layer;
		// remap so derived seeds always select themselves.
		z = 0x9e3779b97f4a7c15
	}
	return z
}
