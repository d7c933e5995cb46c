package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"meshsort/internal/engine"
)

// Sentinel errors of Submit. SpecError wraps canonicalization failures
// so the HTTP layer can map each class to a status code.
var (
	// ErrOverloaded: the admission queue is full. The caller should shed
	// or retry later; the service never queues unboundedly.
	ErrOverloaded = errors.New("service: overloaded: admission queue is full")
	// ErrDraining: Close has begun; no new jobs are admitted.
	ErrDraining = errors.New("service: draining: no new jobs admitted")

	// errInterrupted marks a journaled job that could not be re-queued
	// after a restart (its lane was full); errCancelledQueued marks a job
	// cancelled before a worker picked it up.
	errInterrupted     = errors.New("service: interrupted by restart (journal replay could not re-queue)")
	errCancelledQueued = errors.New("service: cancelled while queued")
)

// SpecError marks a job spec that failed canonicalization (a client
// error, HTTP 400).
type SpecError struct{ Err error }

func (e *SpecError) Error() string { return e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }

// Job states. The lifecycle is a DAG:
//
//	queued → running → done | failed | cancelled | timed-out
//	queued → cancelled | timed-out | failed     (before any worker ran it)
//
// done/failed/cancelled/timed-out are terminal (terminalStatus); a
// cache hit goes queued→done without ever being visible as queued.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
	StatusTimedOut  = "timed-out"
)

// terminalStatus reports whether a status is terminal: the job's done
// channel is closed and its fields are frozen.
func terminalStatus(status string) bool {
	switch status {
	case StatusDone, StatusFailed, StatusCancelled, StatusTimedOut:
		return true
	}
	return false
}

// Job is one admitted simulation. Its mutable fields are guarded by mu;
// Snapshot returns a consistent copy and Done unblocks when the job
// reaches a terminal state.
type Job struct {
	ID       string
	Spec     JobSpec // canonical
	Key      string  // cache key of the canonical spec
	Tenant   string
	Priority string

	// ctx carries the job's deadline (Spec.DeadlineMS) and cancellation;
	// its Done channel is threaded into the engine's step loop. cancel is
	// idempotent and always called at finish to release the timer.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	status    string
	cacheHit  bool
	quotaHeld bool // an in-flight quota slot is reserved until finish
	result    *Result
	err       error
	created   time.Time
	started   time.Time // when running began; zero for jobs that never ran
	finished  time.Time

	done chan struct{}
}

func newJob(spec JobSpec, tenant, priority string) *Job {
	j := &Job{
		Spec:     spec,
		Key:      spec.Key(),
		Tenant:   tenant,
		Priority: priority,
		status:   StatusQueued,
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	if spec.DeadlineMS > 0 {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), time.Duration(spec.DeadlineMS)*time.Millisecond)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
	return j
}

// JobStatus is the wire form of a job: what POST /v1/jobs and
// GET /v1/jobs/{id} return.
type JobStatus struct {
	ID       string  `json:"id"`
	Status   string  `json:"status"`
	Spec     JobSpec `json:"spec"`
	Tenant   string  `json:"tenant,omitempty"`
	Priority string  `json:"priority,omitempty"`
	CacheHit bool    `json:"cacheHit,omitempty"`
	Error    string  `json:"error,omitempty"`
	// Result is the full result for done jobs and the partial result —
	// completed phase prefix, clock so far — for cancelled, timed-out,
	// and degraded-failed jobs.
	Result *Result `json:"result,omitempty"`
}

// Snapshot returns a consistent view of the job.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Status: j.status, Spec: j.Spec,
		Tenant: j.Tenant, Priority: j.Priority,
		CacheHit: j.cacheHit, Result: j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finish moves the job to a terminal state exactly once; the false
// return tells racing finishers (worker vs Cancel vs deadline) they
// lost. The winner closes done (see Service.finishJob).
func (j *Job) finish(status string, res *Result, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return false
	}
	j.status = status
	j.result = res
	j.err = err
	j.finished = time.Now()
	return true
}

// setRunning marks the queued job running; false if a cancel or
// deadline finished it first.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// runDuration is the lease-to-terminal run time; zero if the job never
// ran.
func (j *Job) runDuration() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

// ChaosOpts injects failures for the chaos harness (tests and the
// meshsortd -chaos-* flags): a deterministic per-job roll decides
// whether the job panics mid-run or sleeps before running (to bust
// deadlines). Decisions hash the job ID with Seed, so a storm is
// reproducible run to run.
type ChaosOpts struct {
	PanicRate float64       // fraction of runs that panic on the worker
	SlowRate  float64       // fraction of runs delayed by Slow before simulating
	Slow      time.Duration // the injected delay
	Seed      uint64
}

func (c ChaosOpts) enabled() bool { return c.PanicRate > 0 || c.SlowRate > 0 }

// roll returns the deterministic chaos decision for a job ID. The panic
// draw wins over the slow draw. FNV's high bits are weakly mixed for
// short similar inputs (sequential job IDs), so the hash goes through a
// murmur-style finalizer before being treated as uniform.
func (c ChaosOpts) roll(id string) (panics, slow bool) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", c.Seed, id)
	x := mix64(h.Sum64())
	u1 := float64(x>>11) / float64(uint64(1)<<53)
	u2 := float64(mix64(x+0x9E3779B97F4A7C15)>>11) / float64(uint64(1)<<53)
	if u1 < c.PanicRate {
		return true, false
	}
	return false, u2 < c.SlowRate
}

// mix64 is the murmur3 fmix64 finalizer: a bijection whose output bits
// are all well mixed.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Options configures a Service. The zero value picks sensible defaults
// for an interactive server.
type Options struct {
	// Runners is the warm runner slot count — the maximum number of
	// simulations in flight at once. 0 means 4.
	Runners int
	// WorkersPerRunner is the engine worker count of each slot's
	// persistent pool. 0 means GOMAXPROCS divided over the runners
	// (at least 1), so a fully loaded service uses about one worker per
	// CPU in total.
	WorkersPerRunner int
	// QueueDepth bounds the normal admission lane; a submit beyond it
	// returns ErrOverloaded. The high-priority lane is a quarter of it
	// (at least 1). 0 means 64.
	QueueDepth int
	// CacheCapacity is the result cache size in completed results;
	// 0 means 256, negative disables caching.
	CacheCapacity int
	// JobRetention caps how many terminal jobs stay queryable by ID;
	// the oldest are forgotten first. 0 means 4096.
	JobRetention int

	// JournalPath, when set, makes the service durable: every job
	// transition is appended to the JSONL journal at this path, and Open
	// replays it — terminal jobs become queryable history (done results
	// re-warm the cache), interrupted jobs are re-queued or failed.
	JournalPath string
	// JournalFsync is the journal's fsync policy: FsyncAlways,
	// FsyncInterval (the default), or FsyncNone.
	JournalFsync string

	// TenantInFlight caps each tenant's non-terminal jobs; at the cap
	// Submit returns ErrQuota. 0 means unlimited.
	TenantInFlight int

	// DrainTimeout bounds how long Close waits for busy runner slots.
	// 0 means 30s.
	DrainTimeout time.Duration

	// Chaos, when enabled, injects deterministic failures into runs (the
	// chaos harness; see ChaosOpts). Never enable in production.
	Chaos ChaosOpts
}

func (o Options) withDefaults() Options {
	if o.Runners == 0 {
		o.Runners = 4
	}
	if o.WorkersPerRunner == 0 {
		o.WorkersPerRunner = runtime.GOMAXPROCS(0) / o.Runners
		if o.WorkersPerRunner < 1 {
			o.WorkersPerRunner = 1
		}
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 256
	}
	if o.JobRetention == 0 {
		o.JobRetention = 4096
	}
	if o.JournalFsync == "" {
		o.JournalFsync = FsyncInterval
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 30 * time.Second
	}
	return o
}

// Service multiplexes simulation jobs over warm runners. Create with
// Open (or New), submit with Submit/SubmitWith (or the HTTP layer, see
// Handler), cancel with Cancel, and shut down with Close, which drains
// admitted jobs before returning.
type Service struct {
	opts    Options
	cache   *resultCache
	pool    *runnerPool
	queue   chan *Job // normal lane
	queueHi chan *Job // high-priority lane; workers drain it first
	journal *journal
	quota   *quotas
	rate    serviceRate
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	seq    uint64
	jobs   map[string]*Job
	order  []string // admission order of terminal-retention bookkeeping

	submitted   atomic.Uint64
	rejected    atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	cancelled   atomic.Uint64
	timedOut    atomic.Uint64
	panicked    atomic.Uint64
	simulations atomic.Uint64

	// beforeRun and afterRun, if set (tests only), run on the worker
	// goroutine around the simulation, while the job's runner slot is
	// leased. Tests use them to stall workers (backpressure) and to
	// prove lease exclusivity.
	beforeRun func(j *Job, slot *runnerSlot)
	afterRun  func(j *Job, slot *runnerSlot)
}

// New starts a service, panicking if the journal cannot be opened (use
// Open to handle that error; without Options.JournalPath New cannot
// fail). Runner slots are allocated lazily, workers immediately.
func New(opts Options) *Service {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a service: it opens and replays the journal when
// Options.JournalPath is set — rebuilding terminal history, re-warming
// the result cache, and re-queueing interrupted jobs — and then starts
// the worker goroutines.
func Open(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	hiDepth := opts.QueueDepth / 4
	if hiDepth < 1 {
		hiDepth = 1
	}
	s := &Service{
		opts:    opts,
		cache:   newResultCache(opts.CacheCapacity),
		pool:    newRunnerPool(opts.Runners, opts.WorkersPerRunner),
		queue:   make(chan *Job, opts.QueueDepth),
		queueHi: make(chan *Job, hiDepth),
		quota:   newQuotas(opts.TenantInFlight),
		jobs:    make(map[string]*Job),
	}
	if opts.JournalPath != "" {
		j, replayed, err := openJournal(opts.JournalPath, opts.JournalFsync)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.replay(replayed)
	}
	s.wg.Add(opts.Runners)
	for i := 0; i < opts.Runners; i++ {
		go s.worker()
	}
	return s, nil
}

// replay rebuilds state from journaled jobs, before any worker starts.
// Terminal jobs become queryable history; queued and running jobs were
// interrupted by the crash and are re-queued (with a fresh deadline —
// the original admission time is gone with the process) or, if their
// lane is somehow full, failed as interrupted.
func (s *Service) replay(jobs []replayedJob) {
	for _, rj := range jobs {
		var n uint64
		if _, err := fmt.Sscanf(rj.ID, "j-%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		job := newJob(rj.Spec, rj.Tenant, rj.Priority)
		job.ID = rj.ID
		if terminalStatus(rj.Status) {
			job.status = rj.Status
			job.cacheHit = rj.CacheHit
			job.result = rj.Result
			if rj.Error != "" {
				job.err = errors.New(rj.Error)
			}
			job.finished = job.created
			close(job.done)
			job.cancel()
			if rj.Status == StatusDone && rj.Result != nil && !rj.CacheHit {
				s.cache.put(job.Key, rj.Result)
			}
			s.register(job)
			continue
		}
		// Interrupted. Re-admit past the quota check: the work was already
		// accepted once.
		s.quota.forceAdmit(job.Tenant)
		job.quotaHeld = true
		s.register(job)
		lane := s.lane(job.Priority)
		select {
		case lane <- job:
		default:
			s.finishJob(job, StatusFailed, nil, errInterrupted)
		}
	}
}

func (s *Service) lane(priority string) chan *Job {
	if priority == PriorityHigh {
		return s.queueHi
	}
	return s.queue
}

// SubmitOpts carries the admission metadata of a job: who it bills to
// and which lane it queues on. The zero value is the default tenant at
// normal priority.
type SubmitOpts struct {
	Tenant   string // "" means DefaultTenant
	Priority string // "" means PriorityNormal
}

// Submit admits one job for the default tenant at normal priority; see
// SubmitWith.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitWith(spec, SubmitOpts{})
}

// SubmitWith canonicalizes and admits one job. It returns immediately:
// with a terminal job on a cache hit, with a queued job otherwise, or
// with an error — (*SpecError) for an invalid spec or unknown priority,
// ErrOverloaded when the job's lane is full, ErrQuota at the tenant's
// in-flight cap, ErrDraining after Close has begun. Wait for completion
// via (*Job).Done; cancel via Cancel.
func (s *Service) SubmitWith(spec JobSpec, opts SubmitOpts) (*Job, error) {
	canon, err := spec.Canonicalize()
	if err == nil {
		err = admit(canon)
	}
	if err != nil {
		s.rejected.Add(1)
		return nil, &SpecError{Err: err}
	}
	tenant := opts.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	priority := opts.Priority
	switch priority {
	case "":
		priority = PriorityNormal
	case PriorityNormal, PriorityHigh:
	default:
		s.rejected.Add(1)
		return nil, &SpecError{Err: fmt.Errorf("service: unknown priority %q (want %s or %s)", opts.Priority, PriorityNormal, PriorityHigh)}
	}
	job := newJob(canon, tenant, priority)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.rejected.Add(1)
		job.cancel()
		return nil, ErrDraining
	}
	s.seq++
	job.ID = fmt.Sprintf("j-%06d", s.seq)

	if res, ok := s.cache.get(job.Key); ok {
		// Served from cache: terminal before it is even visible, and no
		// in-flight quota is consumed (nothing runs).
		job.cacheHit = true
		s.quota.note(tenant)
		s.register(job)
		s.journal.append(submitRecord(job))
		s.submitted.Add(1)
		s.finishJob(job, StatusDone, res, nil)
		return job, nil
	}

	lane := s.lane(priority)
	// Capacity check instead of a non-blocking send: all sends happen
	// under s.mu, so len < cap guarantees the send below cannot block,
	// and the submit record can be journaled before the job becomes
	// visible to workers (per-job record order).
	if len(lane) >= cap(lane) {
		s.rejected.Add(1)
		job.cancel()
		return nil, ErrOverloaded
	}
	if err := s.quota.admit(tenant); err != nil {
		s.rejected.Add(1)
		job.cancel()
		return nil, err
	}
	job.quotaHeld = true
	s.register(job)
	s.journal.append(submitRecord(job))
	s.submitted.Add(1)
	lane <- job
	return job, nil
}

func submitRecord(j *Job) journalRecord {
	spec := j.Spec
	return journalRecord{Op: opSubmit, ID: j.ID, Tenant: j.Tenant, Priority: j.Priority, Spec: &spec}
}

// register records the job for ID lookup and evicts the oldest terminal
// jobs beyond the retention cap. Caller holds s.mu.
func (s *Service) register(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.jobs) > s.opts.JobRetention && len(s.order) > 0 {
		oldest, ok := s.jobs[s.order[0]]
		if ok && !terminalStatus(oldest.Snapshot().Status) {
			break // never forget a live job
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// Job looks a job up by ID; ok is false for unknown (or already
// forgotten) IDs.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job by ID. A queued job goes
// terminal (cancelled) immediately; a running job stops cooperatively
// at the engine's next step boundary — bounded by one simulated step —
// and reports its partial result. Cancelling a terminal job is a no-op.
// The returned job is the one cancelled; ok is false for unknown IDs.
func (s *Service) Cancel(id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	queued := j.status == StatusQueued
	j.mu.Unlock()
	j.cancel()
	if queued {
		// No-op if a worker won the race and is now running it; the
		// closed context still stops that run at the next step boundary.
		s.finishJob(j, StatusCancelled, nil, errCancelledQueued)
	}
	return j, true
}

// worker is one scheduler goroutine: it owns at most one leased runner
// slot at a time and drains the admission lanes — high first — until
// Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.nextJob()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// nextJob pops the next admitted job, preferring the high lane, and
// reports false when both lanes are closed and drained.
func (s *Service) nextJob() (*Job, bool) {
	hi, lo := s.queueHi, s.queue
	for hi != nil || lo != nil {
		// Drain the high lane first without blocking.
		if hi != nil {
			select {
			case j, ok := <-hi:
				if !ok {
					hi = nil
					continue
				}
				return j, true
			default:
			}
		}
		if hi == nil { // only the normal lane left
			j, ok := <-lo
			if !ok {
				lo = nil
				continue
			}
			return j, true
		}
		select {
		case j, ok := <-hi:
			if !ok {
				hi = nil
				continue
			}
			return j, true
		case j, ok := <-lo:
			if !ok {
				lo = nil
				continue
			}
			return j, true
		}
	}
	return nil, false
}

// statusForCtx maps a job context error to the terminal status it
// implies.
func statusForCtx(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return StatusTimedOut
	}
	return StatusCancelled
}

func (s *Service) runJob(job *Job) {
	// A cancel or deadline may have beaten the worker to a queued job.
	if err := job.ctx.Err(); err != nil {
		s.finishJob(job, statusForCtx(err), nil, fmt.Errorf("service: %v before the job started", err))
		return
	}
	if !job.setRunning() {
		return // finished while queued (Cancel raced the pop)
	}
	s.journal.append(journalRecord{Op: opRunning, ID: job.ID})

	// A same-key job may have completed while this one sat in the queue;
	// its cached result is the same simulation, so serve it.
	if res, ok := s.cache.get(job.Key); ok {
		job.mu.Lock()
		job.cacheHit = true
		job.mu.Unlock()
		s.finishJob(job, StatusDone, res, nil)
		return
	}

	res, runErr, panicked := s.runOnSlot(job)
	if panicked {
		s.panicked.Add(1)
		s.finishJob(job, StatusFailed, nil, runErr)
		return
	}
	if runErr != nil {
		partial := partialResult(res)
		if ctxErr := job.ctx.Err(); ctxErr != nil && isCancelErr(runErr) {
			// The engine yielded because the job's context fired: deadline
			// or DELETE, not a simulation failure.
			s.finishJob(job, statusForCtx(ctxErr), partial, runErr)
			return
		}
		s.finishJob(job, StatusFailed, partial, runErr)
		return
	}
	s.cache.put(job.Key, &res)
	s.finishJob(job, StatusDone, &res, nil)
}

// runOnSlot leases a runner slot, applies chaos injection, and runs
// the job's spec on it. A panic anywhere in that scope — policy code, local
// phases, injected chaos — is converted into an error with the captured
// stack, and the poisoned slot is quarantined (rebuilt cold on its next
// lease) instead of being released for reuse. The process never exits.
func (s *Service) runOnSlot(job *Job) (res Result, err error, panicked bool) {
	slot := s.pool.acquire(job.Spec.ShapeKey(), job.Spec.Topo())
	quarantined := false
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("service: job %s panicked on runner slot %d: %v\n%s", job.ID, slot.id, r, debug.Stack())
			s.pool.quarantine(slot)
			quarantined = true
		}
		if !quarantined {
			s.pool.release(slot)
		}
	}()
	s.injectChaos(job)
	if s.beforeRun != nil {
		s.beforeRun(job, slot)
	}
	s.simulations.Add(1)
	res, err = Run(job.ctx, job.Spec, slot.runner, slot.pool, nil, false)
	if s.afterRun != nil {
		s.afterRun(job, slot)
	}
	return res, err, false
}

// injectChaos applies the chaos roll for the job: panic, sleep (racing
// the job's own deadline), or nothing. Runs inside runOnSlot's recover
// scope, so injected panics exercise the real quarantine path.
func (s *Service) injectChaos(job *Job) {
	c := s.opts.Chaos
	if !c.enabled() {
		return
	}
	panics, slow := c.roll(job.ID)
	if panics {
		panic(fmt.Sprintf("chaos: injected panic (job %s)", job.ID))
	}
	if slow {
		select {
		case <-time.After(c.Slow):
		case <-job.ctx.Done():
		}
	}
}

// isCancelErr reports whether a run error is the engine's cooperative
// cancellation surfacing (as opposed to a degraded or invalid run).
func isCancelErr(err error) bool {
	return errors.Is(err, engine.ErrCancelled)
}

// partialResult returns the partial result pointer for an errored run,
// or nil when the run produced nothing worth reporting.
func partialResult(res Result) *Result {
	if res.TotalSteps == 0 && len(res.Phases) == 0 {
		return nil
	}
	return &res
}

// finishJob is the single terminal choke point: exactly one caller wins
// the job's finish, and that caller updates the counters, releases the
// tenant's quota slot, feeds the service-rate estimate, journals the
// terminal record, and releases the job's context timer.
func (s *Service) finishJob(j *Job, status string, res *Result, err error) {
	if !j.finish(status, res, err) {
		return
	}
	switch status {
	case StatusDone:
		s.completed.Add(1)
	case StatusFailed:
		s.failed.Add(1)
	case StatusCancelled:
		s.cancelled.Add(1)
	case StatusTimedOut:
		s.timedOut.Add(1)
	}
	j.mu.Lock()
	held := j.quotaHeld
	j.quotaHeld = false
	j.mu.Unlock()
	if held {
		s.quota.release(j.Tenant)
	}
	if d := j.runDuration(); d > 0 {
		s.rate.observe(d)
	}
	// Close done only now, so a waiter that reads Metrics sees this job
	// counted and its quota slot released.
	close(j.done)
	rec := journalRecord{Op: status, ID: j.ID, Error: ""}
	if err != nil {
		rec.Error = err.Error()
	}
	j.mu.Lock()
	rec.CacheHit = j.cacheHit
	j.mu.Unlock()
	rec.Result = res
	s.journal.append(rec)
	j.cancel()
}

// Close drains the service: no new jobs are admitted, every already
// admitted job runs to completion (cancelled/timed-out jobs yield at
// their next boundary), and the runner slots' engine pools are
// released, bounded by Options.DrainTimeout — a slot still busy at the
// deadline is abandoned, never panicked over. Safe to call more than
// once; Submit after Close returns ErrDraining.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queueHi)
	close(s.queue)
	s.wg.Wait()
	s.pool.close(s.opts.DrainTimeout)
	s.journal.close()
}

// RetryAfterSeconds is the current honest Retry-After hint: expected
// seconds until a queue slot opens, from the live queue depth and the
// recent service rate.
func (s *Service) RetryAfterSeconds() int {
	depth := len(s.queue) + len(s.queueHi)
	return retryAfterSeconds(depth, s.opts.Runners, s.rate.estimate())
}

// Metrics is the counter snapshot served at GET /metrics.
type Metrics struct {
	JobsSubmitted uint64 `json:"jobsSubmitted"`
	JobsRejected  uint64 `json:"jobsRejected"` // bad specs + overload + quota + draining
	JobsCompleted uint64 `json:"jobsCompleted"`
	JobsFailed    uint64 `json:"jobsFailed"`
	JobsCancelled uint64 `json:"jobsCancelled"`
	JobsTimedOut  uint64 `json:"jobsTimedOut"`
	JobsPanicked  uint64 `json:"jobsPanicked"` // subset of failed: recovered worker panics
	Simulations   uint64 `json:"simulations"`  // actual runs (completed - cache hits)

	QueueDepth     int `json:"queueDepth"` // both lanes
	QueueCap       int `json:"queueCap"`
	RetryAfterSec  int `json:"retryAfterSec"` // current Retry-After hint
	QueueHighDepth int `json:"queueHighDepth"`

	Runners      int    `json:"runners"`
	RunnersBusy  int    `json:"runnersBusy"`
	WarmLeases   uint64 `json:"warmLeases"`
	ColdBuilds   uint64 `json:"coldBuilds"`
	Repurposed   uint64 `json:"repurposed"`
	SlotsRebuilt uint64 `json:"slotsRebuilt"` // quarantined after panics

	CacheSize      int    `json:"cacheSize"`
	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	CacheEvictions uint64 `json:"cacheEvictions"`

	Journal JournalMetrics           `json:"journal"`
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Metrics {
	slots, busy, warm, cold, rep, rebuilt := s.pool.stats()
	return Metrics{
		JobsSubmitted:  s.submitted.Load(),
		JobsRejected:   s.rejected.Load(),
		JobsCompleted:  s.completed.Load(),
		JobsFailed:     s.failed.Load(),
		JobsCancelled:  s.cancelled.Load(),
		JobsTimedOut:   s.timedOut.Load(),
		JobsPanicked:   s.panicked.Load(),
		Simulations:    s.simulations.Load(),
		QueueDepth:     len(s.queue) + len(s.queueHi),
		QueueCap:       cap(s.queue) + cap(s.queueHi),
		RetryAfterSec:  s.RetryAfterSeconds(),
		QueueHighDepth: len(s.queueHi),
		Runners:        slots,
		RunnersBusy:    busy,
		WarmLeases:     warm,
		ColdBuilds:     cold,
		Repurposed:     rep,
		SlotsRebuilt:   rebuilt,
		CacheSize:      s.cache.len(),
		CacheHits:      s.cache.hits.Load(),
		CacheMisses:    s.cache.misses.Load(),
		CacheEvictions: s.cache.evictions.Load(),
		Journal:        s.journal.metrics(),
		Tenants:        s.quota.snapshot(),
	}
}
