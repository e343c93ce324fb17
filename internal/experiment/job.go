package experiment

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/gaspi"
	"repro/internal/lanczos"
	"repro/internal/trace"
)

// JobSpec is one fault-tolerant Lanczos job as every study, the scenario
// matrix, the chaos fuzzer and cmd/ftlanczos run it: the one launch → wait
// → classify harness under all of them.
type JobSpec struct {
	// Cluster is the testbed. Its Scenario (nil: none) schedules the faults;
	// the paper's exit(-1) at an iteration is cluster.ExitAt.
	Cluster cluster.Config
	// Core configures the framework.
	Core core.Config
	// App configures every worker's Lanczos instance.
	App apps.LanczosConfig
	// Timeout is the hang deadline.
	Timeout time.Duration
	// Wrap, when set, decorates every worker's App (the ablation's probers).
	Wrap func(*apps.Lanczos) core.App
	// WantEig, when set, is the serial reference the run's lowest eigenvalue
	// must match (EigMatches); without it a finished run is not checked.
	WantEig *float64
}

// JobRun is a launched job. Job is the running application, for faults
// that are not scheduled by iteration (a wall-clock kill -9).
type JobRun struct {
	Job *core.Job

	spec  JobSpec
	start time.Time

	mu    sync.Mutex
	insts []*apps.Lanczos
}

// JobResult is a finished job, classified by the scenario matrix's rules.
type JobResult struct {
	// Wall is the launch-to-completion time.
	Wall time.Duration
	// Sum aggregates the recorders (zero on a hung job).
	Sum       trace.Summary
	Recorders []*trace.Recorder
	// Results holds one entry per rank (nil on a hung job).
	Results []gaspi.Result
	// Solver is the solver of a worker that finished (nil if none did);
	// Solver.Eigenvalues are the run's lowest eigenvalues.
	Solver  *lanczos.Solver
	Outcome ScenarioOutcome
	// Detail carries the classified error text, when any.
	Detail string
	// Unfired lists scheduled faults whose trigger never matched.
	Unfired []cluster.FaultEvent
	// Victims are the ranks the fired faults hit (every rank of a downed
	// node included).
	Victims map[gaspi.Rank]bool
}

// StartJob launches the job. A configuration the cluster cannot run as
// asked (core.Config.Validate) is an error, and nothing is launched.
func StartJob(spec JobSpec) (*JobRun, error) {
	if err := spec.Core.Validate(spec.Cluster); err != nil {
		return nil, err
	}
	r := &JobRun{spec: spec, start: time.Now()}
	r.Job = core.Launch(spec.Cluster, spec.Core, func() core.App {
		a := apps.NewLanczos(spec.App)
		r.mu.Lock()
		r.insts = append(r.insts, a)
		r.mu.Unlock()
		if spec.Wrap != nil {
			return spec.Wrap(a)
		}
		return a
	})
	return r, nil
}

// Wait waits for the job up to its deadline, tears it down and classifies
// the run. Victims (ranks hit by fired faults) may die — or, when a fault
// lands between a storage access and the next communication call, surface
// an error instead; both count as the injected death. Any OTHER rank
// erroring is either the crisp unrecoverable abort or a harness failure.
func (r *JobRun) Wait() (out JobResult) {
	job := r.Job
	defer job.Close()
	results, done := job.WaitTimeout(r.spec.Timeout)
	out.Wall = time.Since(r.start)
	out.Recorders = job.Recorders
	inj := job.Cluster.Injector()
	out.Unfired = inj.Pending()
	if !done {
		out.Outcome, out.Detail = OutcomeHung, "deadline exceeded"
		job.Cluster.Shutdown() // reap the stuck ranks
		out.Victims = inj.FiredVictims()
		return out
	}
	out.Results = results
	out.Victims = inj.FiredVictims()
	out.Sum = trace.Aggregate(job.Recorders)
	out.Solver = r.finished()
	out.Outcome, out.Detail = r.classify(out)
	return out
}

func (r *JobRun) classify(out JobResult) (ScenarioOutcome, string) {
	detail := ""
	for _, x := range out.Results {
		if x.Death != nil || out.Victims[x.Rank] || x.Err == nil {
			continue
		}
		if errors.Is(x.Err, ft.ErrUnrecoverable) || errors.Is(x.Err, ft.ErrStalled) {
			if detail == "" {
				detail = x.Err.Error()
			}
			continue
		}
		return OutcomeFailed, fmt.Sprintf("rank %d: %v", x.Rank, x.Err)
	}
	if detail != "" {
		return OutcomeUnrecoverable, detail
	}
	if out.Solver == nil {
		return OutcomeFailed, "no surviving worker finished with a result"
	}
	// The reference is the serial solver's, which sums in another order
	// than the distributed reductions, so only the converged lowest
	// eigenvalue is comparable — within the explicit per-matrix-size
	// tolerance envelope (EigTolerance): a near-miss inside it is a
	// recovered run, outside it is the one absolutely forbidden outcome,
	// silent corruption.
	if want := r.spec.WantEig; want != nil {
		dim := r.spec.App.Gen.Dim()
		eigs, err := out.Solver.Eigenvalues()
		if err != nil {
			return OutcomeFailed, fmt.Sprintf("QL: %v", err)
		}
		if got := eigs[0]; !EigMatches(got, *want, dim) {
			return OutcomeWrongAnswer, fmt.Sprintf("eig0 %v, reference %v (tol %.3g rel)", got, *want, EigTolerance(dim))
		}
	}
	return OutcomeRecovered, ""
}

// finished returns the solver of the first instance that finished with at
// least one coefficient, so that its Eigenvalues are not empty.
func (r *JobRun) finished() *lanczos.Solver {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.insts {
		if s := a.Solver(); s != nil && s.Finished() && len(s.Alpha) > 0 {
			return s
		}
	}
	return nil
}

// Err is a study's verdict on its run: it must have recovered, fired every
// scheduled fault, and lost no rank but the ones the faults hit and the
// ones in allowDead (faults injected outside the scenario).
func (res *JobResult) Err(allowDead ...gaspi.Rank) error {
	if res.Outcome != OutcomeRecovered {
		return fmt.Errorf("%v: %s", res.Outcome, res.Detail)
	}
	if n := len(res.Unfired); n > 0 {
		return fmt.Errorf("%d scheduled fault(s) never fired, the first %v", n, res.Unfired[0])
	}
	for _, x := range res.Results {
		if x.Death != nil && !res.Victims[x.Rank] && !slices.Contains(allowDead, x.Rank) {
			return fmt.Errorf("rank %d died unexpectedly: %+v", x.Rank, x.Death)
		}
	}
	return nil
}
