//! The bounded, deduplicating job queue.
//!
//! Jobs are keyed by their [`JobSpec::content_hash`] — the same key the
//! harness cache uses — so two submissions of the same experiment are the
//! same job: while one is queued or running, later submissions coalesce
//! onto it instead of queueing a second simulation, and its id is stable
//! across clients. Completed entries are retained (bounded) for `GET
//! /jobs/<id>`; evicted ones remain answerable from the on-disk cache.
//!
//! Depth is bounded by `cap`: submissions that would grow `pending` beyond
//! it are rejected ([`Submit::Full`] → HTTP 429), so a traffic spike sheds
//! load instead of growing memory without bound.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use r2d2_harness::{json, Cache, CancelToken, JobSpec, Progress, RunRecord};

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished successfully (`record` is set).
    Done,
    /// Failed (`error` is set): bad spec, simulation error, timeout, or the
    /// server shut down before the job ran.
    Failed,
    /// Cancelled by `DELETE /jobs/<id>` before completing (`error` describes
    /// where it was caught). Terminal, like `Done`/`Failed`.
    Cancelled,
}

impl JobStatus {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Whether this status is final (waiters stop waiting, retention may
    /// evict).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// Mutable state of one job.
#[derive(Debug)]
pub struct JobState {
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Result, once `Done`.
    pub record: Option<RunRecord>,
    /// Failure description, once `Failed`.
    pub error: Option<String>,
}

/// One deduplicated job: the immutable spec plus guarded state and a
/// condvar waiters block on (`?wait=1`, graceful drain).
#[derive(Debug)]
pub struct Job {
    /// The experiment this job runs.
    pub spec: JobSpec,
    /// 16-hex-digit content hash; doubles as the job id.
    pub id: String,
    /// Cooperative cancel token the worker threads into the simulator;
    /// triggered by [`JobQueue::cancel`] on a running job.
    pub cancel: CancelToken,
    /// Live time-series mirror fed by the worker's progress profiler and
    /// streamed by `GET /jobs/<id>/progress`. Empty (but finished) for jobs
    /// answered from the cache.
    pub progress: Progress,
    state: Mutex<JobState>,
    done: Condvar,
}

impl Job {
    fn new(spec: JobSpec) -> Job {
        let id = spec.hash_hex();
        Job {
            spec,
            id,
            cancel: CancelToken::new(),
            progress: Progress::new(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                record: None,
                error: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Snapshot `(status, record, error)`.
    pub fn snapshot(&self) -> (JobStatus, Option<RunRecord>, Option<String>) {
        let s = self.state.lock().unwrap();
        (s.status, s.record.clone(), s.error.clone())
    }

    /// Move to `Running` (worker picked it up).
    pub fn mark_running(&self) {
        self.state.lock().unwrap().status = JobStatus::Running;
    }

    /// Complete with a result and wake every waiter.
    pub fn mark_done(&self, record: RunRecord) {
        let mut s = self.state.lock().unwrap();
        s.status = JobStatus::Done;
        s.record = Some(record);
        drop(s);
        self.progress.finish();
        self.done.notify_all();
    }

    /// Fail with an error and wake every waiter.
    pub fn mark_failed(&self, error: String) {
        let mut s = self.state.lock().unwrap();
        s.status = JobStatus::Failed;
        s.error = Some(error);
        drop(s);
        self.progress.finish();
        self.done.notify_all();
    }

    /// Terminally cancel with a description and wake every waiter.
    pub fn mark_cancelled(&self, error: String) {
        let mut s = self.state.lock().unwrap();
        s.status = JobStatus::Cancelled;
        s.error = Some(error);
        drop(s);
        self.progress.finish();
        self.done.notify_all();
    }

    /// Block until the job reaches a terminal state or `timeout` elapses.
    /// Returns `false` on timeout.
    pub fn wait(&self, timeout: Duration) -> bool {
        let s = self.state.lock().expect("job state poisoned");
        let waited = self
            .done
            .wait_timeout_while(s, timeout, |s| !s.status.is_terminal());
        waited.expect("job state poisoned").0.status.is_terminal()
    }
}

/// Outcome of a submission attempt.
#[derive(Debug)]
pub enum Submit {
    /// A new job was enqueued.
    Enqueued(Arc<Job>),
    /// An identical job already exists (queued, running, or completed);
    /// the submission coalesced onto it.
    Existing(Arc<Job>),
    /// The pending queue is at capacity — shed the request (429).
    Full,
    /// The server is draining — no new work (503).
    ShuttingDown,
}

/// Outcome of a cancellation request ([`JobQueue::cancel`]).
#[derive(Debug)]
pub enum Cancel {
    /// The job was still queued: removed from the pending queue and moved
    /// straight to `Cancelled`.
    Dequeued(Arc<Job>),
    /// The job is running: its [`CancelToken`] has been triggered; the
    /// worker observes it within one simulation epoch and marks the job
    /// `Cancelled` (or `Done`, if completion raced the request).
    Signalled(Arc<Job>),
    /// The job already reached a terminal state; nothing to do.
    Terminal(Arc<Job>),
    /// No such job in memory (possibly evicted after completing).
    NotFound,
}

/// Outcome of resolving a job id ([`JobQueue::lookup`]) — the one path both
/// `GET /jobs/<id>` and the progress-stream replay go through, so the
/// live-entry and evicted-but-disk-cached cases can never drift apart.
#[derive(Debug)]
pub enum Lookup {
    /// The job is live (queued/running) or retained in memory.
    Live(Arc<Job>),
    /// Evicted from memory (or produced by an earlier process), but the
    /// content-addressed cache still holds the completed record (boxed —
    /// a `RunRecord` is large and the other arms are pointer-sized).
    Cached(JobSpec, Box<RunRecord>),
    /// The id is not 16 hex digits.
    BadId,
    /// Nothing in memory and nothing on disk.
    Missing,
}

/// Default in-memory retention of completed entries for `GET /jobs/<id>`.
/// Evicted entries are still answerable from the on-disk cache.
pub const RETAIN_COMPLETED: usize = 512;

#[derive(Debug, Default)]
struct Inner {
    jobs: HashMap<u64, Arc<Job>>,
    pending: VecDeque<u64>,
    /// Completion order, oldest first, for bounded retention.
    completed: VecDeque<u64>,
    shutting_down: bool,
}

/// The shared queue: spec-keyed dedup map + FIFO of pending hashes.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    /// Signals workers that `pending` gained an entry or shutdown started.
    work: Condvar,
    cap: usize,
    /// Completed entries retained in memory before eviction to disk-only.
    retain: usize,
}

impl JobQueue {
    /// A queue that sheds submissions beyond `cap` pending jobs and retains
    /// [`RETAIN_COMPLETED`] completed entries in memory.
    pub fn new(cap: usize) -> JobQueue {
        JobQueue::with_retention(cap, RETAIN_COMPLETED)
    }

    /// [`JobQueue::new`] with an explicit completed-entry retention bound
    /// (0 evicts immediately; `GET /jobs/<id>` then always falls back to the
    /// on-disk cache).
    pub fn with_retention(cap: usize, retain: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner::default()),
            work: Condvar::new(),
            cap: cap.max(1),
            retain,
        }
    }

    /// Pending (queued, not yet running) job count.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().pending.len()
    }

    /// Submit a spec: coalesce onto an identical live job, else enqueue.
    pub fn submit(&self, spec: JobSpec) -> Submit {
        let hash = spec.content_hash();
        let mut inner = self.inner.lock().unwrap();
        if inner.shutting_down {
            return Submit::ShuttingDown;
        }
        if let Some(job) = inner.jobs.get(&hash) {
            return Submit::Existing(Arc::clone(job));
        }
        if inner.pending.len() >= self.cap {
            return Submit::Full;
        }
        let job = Arc::new(Job::new(spec));
        inner.jobs.insert(hash, Arc::clone(&job));
        inner.pending.push_back(hash);
        drop(inner);
        self.work.notify_one();
        Submit::Enqueued(job)
    }

    /// Insert an already-completed job (cache answered at submit time) so
    /// `GET /jobs/<id>` finds it. Coalesces like `submit`.
    pub fn insert_completed(&self, spec: JobSpec, record: RunRecord) -> Submit {
        let hash = spec.content_hash();
        let mut inner = self.inner.lock().unwrap();
        if inner.shutting_down {
            return Submit::ShuttingDown;
        }
        if let Some(job) = inner.jobs.get(&hash) {
            return Submit::Existing(Arc::clone(job));
        }
        let job = Arc::new(Job::new(spec));
        job.mark_done(record);
        inner.jobs.insert(hash, Arc::clone(&job));
        self.retain_completed(&mut inner, hash);
        Submit::Existing(job)
    }

    /// Worker side: block until a job is available; `None` means shutdown.
    pub fn pop(&self) -> Option<Arc<Job>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(hash) = inner.pending.pop_front() {
                let job = Arc::clone(inner.jobs.get(&hash).expect("pending job exists"));
                job.mark_running();
                return Some(job);
            }
            if inner.shutting_down {
                return None;
            }
            inner = self.work.wait(inner).unwrap();
        }
    }

    /// Bookkeeping after a job completes: bounded retention of finished
    /// entries (live queued/running jobs are never evicted).
    pub fn finished(&self, job: &Job) {
        let mut inner = self.inner.lock().unwrap();
        self.retain_completed(&mut inner, job.spec.content_hash());
    }

    /// Request cancellation of the job with content hash `hash`. Queued jobs
    /// move straight to `Cancelled`; running jobs get their token triggered
    /// and the worker finishes the transition (a completion that races the
    /// request wins — the job stays `Done`).
    pub fn cancel(&self, hash: u64) -> Cancel {
        let mut inner = self.inner.lock().unwrap();
        let Some(job) = inner.jobs.get(&hash).cloned() else {
            return Cancel::NotFound;
        };
        // Status can only move Queued -> Running under `inner` (see `pop`),
        // so holding it here makes the dequeue race-free.
        let status = job.state.lock().unwrap().status;
        match status {
            JobStatus::Queued => {
                inner.pending.retain(|&h| h != hash);
                job.cancel.cancel();
                job.mark_cancelled("cancelled while queued".into());
                self.retain_completed(&mut inner, hash);
                Cancel::Dequeued(job)
            }
            JobStatus::Running => {
                drop(inner);
                job.cancel.cancel();
                Cancel::Signalled(job)
            }
            _ => Cancel::Terminal(job),
        }
    }

    fn retain_completed(&self, inner: &mut Inner, hash: u64) {
        inner.completed.push_back(hash);
        while inner.completed.len() > self.retain {
            let old = inner.completed.pop_front().unwrap();
            // Only evict if it is still completed (a fresh resubmission may
            // have replaced the entry with a live job under the same hash —
            // impossible today since completed entries coalesce, but cheap
            // to guard).
            let evict = inner
                .jobs
                .get(&old)
                .is_some_and(|j| j.state.lock().unwrap().status.is_terminal());
            if evict {
                inner.jobs.remove(&old);
            }
        }
    }

    /// Look up a live or retained job by its content hash.
    pub fn get(&self, hash: u64) -> Option<Arc<Job>> {
        self.inner.lock().unwrap().jobs.get(&hash).cloned()
    }

    /// Resolve a wire job id against the in-memory map first, then the
    /// on-disk cache — the single lookup every read path (`GET /jobs/<id>`,
    /// the progress replay) must route through.
    pub fn lookup(&self, id: &str, cache: &Cache) -> Lookup {
        let Some(hash) = parse_job_id(id) else {
            return Lookup::BadId;
        };
        if let Some(job) = self.get(hash) {
            return Lookup::Live(job);
        }
        match load_cached_by_hash(cache, id) {
            Some((spec, rec)) => Lookup::Cached(spec, Box::new(rec)),
            None => Lookup::Missing,
        }
    }

    /// Start draining: new submissions are rejected, workers finish their
    /// current job and exit, and still-pending jobs fail with a shutdown
    /// error (waking their waiters).
    pub fn begin_shutdown(&self) {
        let mut inner = self.inner.lock().unwrap();
        if inner.shutting_down {
            return;
        }
        inner.shutting_down = true;
        let pending: Vec<u64> = inner.pending.drain(..).collect();
        let jobs: Vec<Arc<Job>> = pending
            .iter()
            .filter_map(|h| inner.jobs.get(h).cloned())
            .collect();
        drop(inner);
        for job in jobs {
            job.mark_failed("server shut down before the job ran".into());
            self.finished(&job);
        }
        self.work.notify_all();
    }
}

/// Parse a wire job id: exactly 16 hex digits (the content-hash stem).
pub fn parse_job_id(id: &str) -> Option<u64> {
    if id.len() != 16 {
        return None;
    }
    u64::from_str_radix(id, 16).ok()
}

/// Read `results/cache/<id>.json` directly and verify the embedded spec
/// hashes to `id` (same trust model as `Cache::load`).
fn load_cached_by_hash(cache: &Cache, id: &str) -> Option<(JobSpec, RunRecord)> {
    let path = cache.dir().join(format!("{id}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    let v = json::parse(&text).ok()?;
    let spec = JobSpec::from_json(v.get("spec")?)?;
    if spec.hash_hex() != id {
        return None;
    }
    let rec = RunRecord::from_json(v.get("record")?)?;
    Some((spec, rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_harness::ModelSpec;
    use r2d2_workloads::Size;

    fn spec(n: u32) -> JobSpec {
        let mut s = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
        s.overrides.num_sms = Some(n);
        s
    }

    fn done_record() -> RunRecord {
        RunRecord {
            stats: Default::default(),
            energy: Default::default(),
            used_r2d2: false,
            ideal: None,
            wall_ms: 0.0,
            cached: false,
        }
    }

    #[test]
    fn dedup_coalesces_identical_specs() {
        let q = JobQueue::new(8);
        let a = match q.submit(spec(4)) {
            Submit::Enqueued(j) => j,
            other => panic!("{other:?}"),
        };
        match q.submit(spec(4)) {
            Submit::Existing(j) => assert_eq!(j.id, a.id),
            other => panic!("{other:?}"),
        }
        assert_eq!(q.depth(), 1, "one pending job despite two submissions");
    }

    #[test]
    fn cap_sheds_beyond_pending_limit() {
        let q = JobQueue::new(2);
        assert!(matches!(q.submit(spec(1)), Submit::Enqueued(_)));
        assert!(matches!(q.submit(spec(2)), Submit::Enqueued(_)));
        assert!(matches!(q.submit(spec(3)), Submit::Full));
        // Duplicates of queued jobs coalesce instead of shedding.
        assert!(matches!(q.submit(spec(1)), Submit::Existing(_)));
    }

    #[test]
    fn shutdown_fails_pending_and_unblocks_pop() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        let job = match q.submit(spec(9)) {
            Submit::Enqueued(j) => j,
            other => panic!("{other:?}"),
        };
        q.begin_shutdown();
        assert!(matches!(q.submit(spec(10)), Submit::ShuttingDown));
        assert!(q.pop().is_none(), "pop unblocks into None after shutdown");
        let (status, _, err) = job.snapshot();
        assert_eq!(status, JobStatus::Failed);
        assert!(err.unwrap().contains("shut down"));
        assert!(job.wait(Duration::from_millis(10)), "waiters woke");
    }

    #[test]
    fn cancel_queued_job_dequeues_and_terminates() {
        let q = JobQueue::new(8);
        let job = match q.submit(spec(1)) {
            Submit::Enqueued(j) => j,
            other => panic!("{other:?}"),
        };
        assert!(matches!(q.submit(spec(2)), Submit::Enqueued(_)));
        let hash = job.spec.content_hash();
        match q.cancel(hash) {
            Cancel::Dequeued(j) => assert_eq!(j.id, job.id),
            other => panic!("{other:?}"),
        }
        assert_eq!(q.depth(), 1, "cancelled job left the pending queue");
        let (status, _, err) = job.snapshot();
        assert_eq!(status, JobStatus::Cancelled);
        assert!(err.unwrap().contains("queued"));
        assert!(job.cancel.is_cancelled());
        assert!(job.progress.snapshot().finished);
        assert!(job.wait(Duration::from_millis(10)), "waiters woke");
        // A second cancel is a terminal no-op.
        assert!(matches!(q.cancel(hash), Cancel::Terminal(_)));
        // The next pop skips the cancelled job entirely.
        let next = q.pop().unwrap();
        assert_eq!(next.spec.overrides.num_sms, Some(2));
    }

    #[test]
    fn cancel_running_job_signals_without_terminating() {
        let q = JobQueue::new(8);
        assert!(matches!(q.submit(spec(5)), Submit::Enqueued(_)));
        let job = q.pop().unwrap();
        assert!(!job.cancel.is_cancelled());
        match q.cancel(job.spec.content_hash()) {
            Cancel::Signalled(j) => assert_eq!(j.id, job.id),
            other => panic!("{other:?}"),
        }
        assert!(job.cancel.is_cancelled(), "token triggered");
        let (status, _, _) = job.snapshot();
        assert_eq!(
            status,
            JobStatus::Running,
            "the worker, not the queue, finishes the transition"
        );
    }

    #[test]
    fn cancel_unknown_hash_is_not_found() {
        let q = JobQueue::new(4);
        assert!(matches!(q.cancel(0xdead_beef), Cancel::NotFound));
    }

    #[test]
    fn retention_bound_evicts_oldest_completed_entries() {
        let q = JobQueue::with_retention(8, 1);
        let rec = done_record();
        let first = spec(1).content_hash();
        let second = spec(2).content_hash();
        assert!(matches!(
            q.insert_completed(spec(1), rec.clone()),
            Submit::Existing(_)
        ));
        assert!(q.get(first).is_some(), "within the retention bound");
        assert!(matches!(
            q.insert_completed(spec(2), rec),
            Submit::Existing(_)
        ));
        assert!(q.get(first).is_none(), "oldest completed entry evicted");
        assert!(q.get(second).is_some(), "newest survives");
        // Live jobs are never evicted, no matter how many completions pass.
        let live = match q.submit(spec(3)) {
            Submit::Enqueued(j) => j,
            other => panic!("{other:?}"),
        };
        let live_hash = live.spec.content_hash();
        live.mark_done(done_record());
        q.finished(&live);
        assert!(q.get(second).is_none(), "second evicted in turn");
        assert!(q.get(live_hash).is_some());
    }

    #[test]
    fn lookup_resolves_live_cached_bad_and_missing_ids() {
        let dir = std::env::temp_dir().join(format!("r2d2-lookup-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::at(&dir);
        let q = JobQueue::with_retention(8, 0);

        // Ill-formed ids never reach the map or the disk.
        for bad in ["", "xyz", "123", &"f".repeat(15), &"g".repeat(16)] {
            assert!(parse_job_id(bad).is_none(), "{bad:?} accepted");
            assert!(matches!(q.lookup(bad, &cache), Lookup::BadId));
        }

        // A live job resolves from memory.
        let live = match q.submit(spec(1)) {
            Submit::Enqueued(j) => j,
            other => panic!("{other:?}"),
        };
        match q.lookup(&live.spec.hash_hex(), &cache) {
            Lookup::Live(j) => assert_eq!(j.id, live.id),
            other => panic!("{other:?}"),
        }

        // Retention 0 evicts on completion; the disk cache still answers,
        // through the same call.
        cache.store(&spec(2), &done_record()).expect("store");
        let evicted = spec(2).hash_hex();
        match q.lookup(&evicted, &cache) {
            Lookup::Cached(s, _) => assert_eq!(s.hash_hex(), evicted),
            other => panic!("{other:?}"),
        }

        // Well-formed but unknown everywhere.
        assert!(matches!(
            q.lookup(&spec(3).hash_hex(), &cache),
            Lookup::Missing
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pop_runs_in_fifo_order() {
        let q = JobQueue::new(8);
        for n in [1, 2, 3] {
            assert!(matches!(q.submit(spec(n)), Submit::Enqueued(_)));
        }
        for n in [1, 2, 3] {
            let job = q.pop().unwrap();
            assert_eq!(job.spec.overrides.num_sms, Some(n));
            let (status, _, _) = job.snapshot();
            assert_eq!(status, JobStatus::Running);
        }
    }
}
