package hetcc

import (
	"fmt"
	"time"

	"hetcc/internal/platform"
	"hetcc/internal/runner"
)

// BatchSpec names one simulation of a batch.
type BatchSpec struct {
	// Label identifies the run in errors and digests (e.g.
	// "pf2/WCS/proposed/lines=8").
	Label string
	// Config is the simulation to run.
	Config Config
}

// BatchOptions tunes RunBatch; the zero value runs sequentially (one worker)
// with no reports.
type BatchOptions struct {
	// Jobs is the worker count; <= 0 selects GOMAXPROCS.
	Jobs int
	// BaseSeed, when nonzero, gives every spec with a zero Params.Seed a
	// per-index seed via runner.DeriveSeed, so batch members draw distinct
	// but reproducible workload streams.
	BaseSeed uint64
	// Reports additionally builds each run's versioned report and its
	// SHA-256 digest (BatchResult.Report/Digest) for byte-identical
	// aggregation checks.
	Reports bool
}

// BatchResult is one run's outcome, reported at its spec's index.
type BatchResult struct {
	// Label echoes the spec label.
	Label string
	// Result is the simulation outcome (zero when Err is non-nil).
	Result Result
	// Report is the run's machine-readable versioned report (nil unless
	// BatchOptions.Reports; see platform.ReportSchemaVersion).
	Report *platform.Report
	// Digest is the hex SHA-256 of Report's canonical JSON (empty unless
	// BatchOptions.Reports).
	Digest string
	// Err is a build/run-dispatch error or a captured panic;
	// simulation-level failures stay in Result.Err as for Run.
	Err error
	// Elapsed is the run's wall-clock duration.
	Elapsed time.Duration
}

// RunBatch executes every spec on a bounded worker pool and returns results
// in spec order.  Each run builds its own platform, so runs share no mutable
// state; results (and digests, when enabled) are aggregated by spec index,
// making the returned slice — and anything rendered from it — byte-identical
// whatever the worker count.
func RunBatch(specs []BatchSpec, opts BatchOptions) []BatchResult {
	tasks := make([]runner.Task[BatchResult], len(specs))
	for i, spec := range specs {
		i, spec := i, spec
		if opts.BaseSeed != 0 && spec.Config.Params.Seed == 0 {
			spec.Config.Params.Seed = runner.DeriveSeed(opts.BaseSeed, i)
		}
		tasks[i] = runner.Task[BatchResult]{
			Label: spec.Label,
			Run: func() (BatchResult, error) {
				br := BatchResult{Label: spec.Label}
				p, err := Build(spec.Config)
				if err != nil {
					return br, err
				}
				res := p.Run(spec.Config.cycleBudget())
				br.Result = Result{Result: res, EngineCyclesPerBusCycle: platform.BusClockDiv}
				if opts.Reports {
					rep := p.Report(res, spec.Config.Scenario.String())
					br.Report = &rep
					br.Digest, err = runner.ReportDigest(rep)
					if err != nil {
						return br, err
					}
				}
				return br, nil
			},
		}
	}
	outcomes := runner.Execute(tasks, runner.Options{Jobs: opts.Jobs})
	results := make([]BatchResult, len(outcomes))
	for i, o := range outcomes {
		results[i] = o.Value
		results[i].Label = specs[i].Label
		results[i].Elapsed = o.Elapsed
		if o.Err != nil {
			results[i].Err = fmt.Errorf("hetcc: batch run %q: %w", specs[i].Label, o.Err)
		}
	}
	return results
}

// BatchDigest folds the per-run digests of a Reports-enabled batch into one
// order-sensitive digest certifying both every run and the aggregation
// order.  It returns an error if any run failed or reports were disabled.
func BatchDigest(results []BatchResult) (string, error) {
	digests := make([]string, len(results))
	for i, r := range results {
		if r.Err != nil {
			return "", fmt.Errorf("hetcc: batch digest: run %q failed: %w", r.Label, r.Err)
		}
		if r.Digest == "" {
			return "", fmt.Errorf("hetcc: batch digest: run %q has no report digest (enable BatchOptions.Reports)", r.Label)
		}
		digests[i] = r.Digest
	}
	return runner.CombineDigests(digests), nil
}

// BatchFirstError returns the lowest-index failure of a batch, or nil.  A
// run fails on a dispatch error (BatchResult.Err), a simulation failure
// (Result.Err), a golden-model stale read (with Verify) or an invariant
// violation (with Audit).  Index order makes the reported error identical to
// what a sequential sweep would have hit first.
func BatchFirstError(results []BatchResult) error {
	for _, r := range results {
		res := r.Result
		switch {
		case r.Err != nil:
			return r.Err
		case res.Err != nil:
			return fmt.Errorf("hetcc: batch run %q: %w", r.Label, res.Err)
		case len(res.Violations) > 0:
			return fmt.Errorf("hetcc: batch run %q: coherence violation: %v", r.Label, res.Violations[0])
		case res.Audit != nil && res.Audit.ViolationCount > 0:
			return fmt.Errorf("hetcc: batch run %q: %d invariant violation(s), first: %v",
				r.Label, res.Audit.ViolationCount, res.Audit.Violations[0])
		}
	}
	return nil
}
