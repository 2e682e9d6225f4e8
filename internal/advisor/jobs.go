// This file persists job specs, results, and journals under the
// journal directory — durable artifacts that must survive a crash
// whole: the atomicwrite analyzer holds every file creation in this
// package to the temp+rename protocol.
//
//lint:persist

package advisor

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"tiling3d/internal/bench"
)

// validJobID matches the generated id form (SweepRequest.ID). Get
// rejects anything else before joining the id into a path: the mux
// matches segments on the escaped URL, so a percent-encoded slash or
// dot survives into PathValue and would otherwise walk a crafted id
// out of the journal directory.
var validJobID = regexp.MustCompile(`^job-[0-9a-f]{16}$`)

// Job states reported by GET /v1/jobs/{id}.
const (
	JobRunning     = "running"
	JobDone        = "done"
	JobFailed      = "failed"
	JobInterrupted = "interrupted" // server draining; will resume on restart
)

// JobStatus is the wire view of one sweep job.
type JobStatus struct {
	ID     string       `json:"id"`
	State  string       `json:"state"`
	Req    SweepRequest `json:"request"`
	Done   int          `json:"points_done"`
	Total  int          `json:"points_total"`
	Error  string       `json:"error,omitempty"`
	Result []SweepPoint `json:"result,omitempty"`
}

// SweepPoint is one (method, N) cell of a finished sweep.
type SweepPoint struct {
	Method   string  `json:"method"`
	N        int     `json:"n"`
	L1Rate   float64 `json:"l1_rate"`
	L2Rate   float64 `json:"l2_rate"`
	Flops    int64   `json:"flops"`
	Degraded bool    `json:"degraded,omitempty"`
	Failed   bool    `json:"failed,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// JobManager runs sweep jobs: content-addressed by their normalized
// spec, journaled through the bench checkpoint file, resumable after a
// crash. The protocol is three files per job in the journal directory:
//
//	<id>.job.json     the spec, written atomically at submission
//	<id>.journal      the bench checkpoint journal, appended per point
//	<id>.result.json  the final table, written atomically at completion
//
// A spec without a result is unfinished by definition — Resume restarts
// exactly those, and the journal replays every completed point, so a
// kill -9 between any two writes loses at most the in-flight point.
type JobManager struct {
	dir     string
	workers int
	fault   *FaultScript

	mu   sync.Mutex
	jobs map[string]*job
	wg   sync.WaitGroup

	rootCtx    context.Context
	rootCancel context.CancelFunc
}

type job struct {
	id     string
	req    SweepRequest
	total  int
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	done     int
	err      string
	result   []SweepPoint
	injected string // "kill" or "torn": a scripted crash is in progress
}

// NewJobManager builds a manager journaling into dir with the given
// per-job simulation worker count.
func NewJobManager(dir string, workers int, fault *FaultScript) *JobManager {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &JobManager{
		dir:        dir,
		workers:    workers,
		fault:      fault,
		jobs:       map[string]*job{},
		rootCtx:    ctx,
		rootCancel: cancel,
	}
}

func (m *JobManager) specPath(id string) string    { return filepath.Join(m.dir, id+".job.json") }
func (m *JobManager) journalPath(id string) string { return filepath.Join(m.dir, id+".journal") }
func (m *JobManager) resultPath(id string) string  { return filepath.Join(m.dir, id+".result.json") }

// Submit starts the sweep job for req, or joins the one already running
// or finished for the same normalized spec. The returned status is a
// snapshot.
func (m *JobManager) Submit(req SweepRequest) (JobStatus, error) {
	if err := req.Validate(); err != nil {
		return JobStatus{}, badRequestError{err}
	}
	req = req.normalize()
	id := req.ID()

	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j.status(), nil
	}
	// A completed job from a previous process serves from its result file.
	if st, ok, err := m.loadResult(id, req); err != nil {
		return JobStatus{}, err
	} else if ok {
		return st, nil
	}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return JobStatus{}, err
	}
	if err := writeFileAtomic(m.specPath(id), mustMarshal(req)); err != nil {
		return JobStatus{}, err
	}
	opt, _, err := sweepOptions(req, context.Background(), m.workers, nil)
	if err != nil {
		return JobStatus{}, err
	}
	ctx, cancel := context.WithCancel(m.rootCtx)
	j := &job{
		id:     id,
		req:    req,
		total:  len(opt.Methods) * len(opt.Sizes()),
		cancel: cancel,
		state:  JobRunning,
	}
	m.jobs[id] = j
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		m.run(ctx, j)
	}()
	return j.status(), nil
}

// loadResult serves a finished job from disk; called with m.mu held.
func (m *JobManager) loadResult(id string, req SweepRequest) (JobStatus, bool, error) {
	data, err := os.ReadFile(m.resultPath(id))
	if os.IsNotExist(err) {
		return JobStatus{}, false, nil
	}
	if err != nil {
		return JobStatus{}, false, err
	}
	var result []SweepPoint
	if err := json.Unmarshal(data, &result); err != nil {
		return JobStatus{}, false, fmt.Errorf("advisor: job %s: corrupt result file: %v", id, err)
	}
	st := JobStatus{ID: id, State: JobDone, Req: req, Done: len(result), Total: len(result), Result: result}
	return st, true, nil
}

// run executes one job to completion, crash, or cancellation.
func (m *JobManager) run(ctx context.Context, j *job) {
	opt, kernel, err := sweepOptions(j.req, ctx, m.workers, nil)
	if err != nil {
		j.fail(err)
		return
	}
	journal, err := bench.OpenJournal(m.journalPath(j.id), opt, true)
	if err != nil {
		j.fail(fmt.Errorf("advisor: job %s: journal: %w", j.id, err))
		return
	}
	opt.Journal = journal
	j.setDone(journal.Resumed())
	// The "job" fault counter ticks once per point resolved in this run,
	// simulated or copied from its warm-share lead (journal-resumed
	// points never reach the hook). kill abandons the job as a crash
	// would; torn also leaves a half-written last line for the restart
	// to recover from.
	opt.DiagHook = func(d bench.PointDiag) {
		j.tick()
		if rule, ok := m.fault.Fire("job"); ok {
			switch rule.Mode {
			case "kill", "torn":
				j.mu.Lock()
				j.injected = rule.Mode
				j.mu.Unlock()
				j.cancel()
			}
		}
	}

	outs, serr := bench.SimOutcomes(kernel, opt)

	j.mu.Lock()
	injected := j.injected
	j.mu.Unlock()
	if injected != "" {
		// Scripted crash: no compaction, no result, no state cleanup —
		// exactly what kill -9 after the last journal append looks like.
		// torn additionally rips the journal's final line in half.
		if injected == "torn" {
			if f, err := os.OpenFile(journal.Path(), os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
				// Best effort: a failed tear just means the torn-tail
				// recovery path goes unexercised this run.
				_, _ = f.WriteString(`{"key":{"kernel":"jac`)
				_ = f.Close()
			}
		}
		j.setState(JobInterrupted, "injected crash: "+injected)
		return
	}
	if serr != nil {
		if ctx.Err() != nil {
			j.setState(JobInterrupted, "server draining; job resumes on restart")
			return
		}
		j.fail(serr)
		return
	}

	result := make([]SweepPoint, 0, len(outs))
	for _, out := range outs {
		mp := out.Res.MissPoint()
		result = append(result, SweepPoint{
			Method:   out.Key.Method,
			N:        out.Key.N,
			L1Rate:   mp.L1,
			L2Rate:   mp.L2,
			Flops:    out.Res.Flops,
			Degraded: out.Degraded,
			Failed:   out.Failed,
			Err:      out.Err,
		})
	}
	// Compaction before the result write: the journal reaches its
	// canonical sorted form, so a resumed run and an uninterrupted run
	// leave byte-identical journals next to byte-identical results.
	if err := journal.Compact(); err != nil {
		j.fail(err)
		return
	}
	if err := writeFileAtomic(m.resultPath(j.id), mustMarshal(result)); err != nil {
		j.fail(err)
		return
	}
	j.mu.Lock()
	j.state = JobDone
	j.result = result
	j.done = len(result)
	j.mu.Unlock()
}

// Get returns the job's status, consulting disk for jobs finished by a
// previous process. Ids that don't match the generated form don't exist
// by definition and never touch the filesystem.
func (m *JobManager) Get(id string) (JobStatus, bool) {
	if !validJobID.MatchString(id) {
		return JobStatus{}, false
	}
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		return j.status(), true
	}
	spec, err := os.ReadFile(m.specPath(id))
	if err != nil {
		return JobStatus{}, false
	}
	var req SweepRequest
	if err := json.Unmarshal(spec, &req); err != nil {
		return JobStatus{}, false
	}
	if st, ok, err := m.loadResult(id, req); err == nil && ok {
		return st, true
	}
	return JobStatus{ID: id, State: JobInterrupted, Req: req}, true
}

// Resume restarts every journaled job whose spec has no result — the
// crash-recovery scan run at server startup. It returns the resumed IDs
// in sorted order.
func (m *JobManager) Resume() ([]string, error) {
	entries, err := os.ReadDir(m.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var resumed []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".job.json") {
			continue
		}
		id := strings.TrimSuffix(name, ".job.json")
		if _, err := os.Stat(m.resultPath(id)); err == nil {
			continue
		}
		data, err := os.ReadFile(m.specPath(id))
		if err != nil {
			return resumed, err
		}
		var req SweepRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return resumed, fmt.Errorf("advisor: job %s: corrupt spec: %v", id, err)
		}
		if _, err := m.Submit(req); err != nil {
			return resumed, err
		}
		resumed = append(resumed, id)
	}
	sort.Strings(resumed)
	return resumed, nil
}

// Drain cancels running jobs at their next point boundary and waits for
// them to journal what they have. Interrupted jobs resume on restart.
func (m *JobManager) Drain(ctx context.Context) error {
	m.rootCancel()
	done := make(chan struct{})
	//lint:allow ctxflow -- the wait-pump must outlive ctx: it turns wg.Wait into a channel the select below races against ctx
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:     j.id,
		State:  j.state,
		Req:    j.req,
		Done:   j.done,
		Total:  j.total,
		Error:  j.err,
		Result: j.result,
	}
}

func (j *job) tick() {
	j.mu.Lock()
	j.done++
	j.mu.Unlock()
}

func (j *job) setDone(n int) {
	j.mu.Lock()
	j.done = n
	j.mu.Unlock()
}

func (j *job) setState(state, msg string) {
	j.mu.Lock()
	j.state = state
	j.err = msg
	j.mu.Unlock()
}

func (j *job) fail(err error) {
	j.setState(JobFailed, err.Error())
}

// writeFileAtomic writes via a temp file and rename so a crash never
// leaves a half-written spec or result.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil { //lint:allow atomicwrite -- this IS the temp half of the temp+rename protocol

		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// mustMarshal is json.MarshalIndent for values this package built
// itself; failure is a programming error.
func mustMarshal(v any) []byte {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("advisor: marshal: %v", err))
	}
	return append(data, '\n')
}
