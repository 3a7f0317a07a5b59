//! The scheduler core: node pool, queue, FCFS + conservative backfill.

use lms_util::{Clock, Timestamp};
use std::collections::VecDeque;
use std::time::Duration;

/// Job identifier (sequential, rendered as the `jobid` tag).
pub type JobId = u64;

/// What a user submits.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Owning user.
    pub user: String,
    /// Job name (for dashboards).
    pub name: String,
    /// Number of nodes requested.
    pub num_nodes: usize,
    /// Requested wall-clock limit. The simulated job also *actually* runs
    /// this long unless [`runtime`](Self::runtime) is set shorter.
    pub walltime: Duration,
    /// Actual runtime (defaults to the walltime).
    pub runtime: Duration,
    /// Extra tags attached to the job's signals (queue, account, ...).
    pub tags: Vec<(String, String)>,
}

impl JobSpec {
    /// A job spec with runtime == walltime and no extra tags.
    pub fn new(user: &str, name: &str, num_nodes: usize, walltime: Duration) -> Self {
        JobSpec {
            user: user.to_string(),
            name: name.to_string(),
            num_nodes,
            walltime,
            runtime: walltime,
            tags: Vec::new(),
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Running since `started`.
    Running {
        /// Allocation time.
        started: Timestamp,
    },
    /// Finished.
    Completed {
        /// Allocation time.
        started: Timestamp,
        /// Deallocation time.
        ended: Timestamp,
    },
    /// Refused at submission: it asks for more nodes than the cluster has.
    Cancelled,
}

impl JobState {
    /// True for [`JobState::Running`].
    pub fn is_running(&self) -> bool {
        matches!(self, JobState::Running { .. })
    }

    /// True for [`JobState::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobState::Completed { .. })
    }
}

/// A job known to the scheduler.
#[derive(Debug, Clone)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Submission time.
    pub submitted: Timestamp,
    /// Current state.
    pub state: JobState,
    hosts: Vec<String>,
}

impl Job {
    /// The allocated hostnames (empty while pending).
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }
}

/// Lifecycle callbacks — the prolog/epilog hooks that fire router signals.
pub trait SchedulerHook: Send {
    /// Called when a job is allocated (before it "runs").
    fn on_job_start(&mut self, job: &Job);
    /// Called when a job completes.
    fn on_job_end(&mut self, job: &Job);
    /// Called at every [`Scheduler::tick`], before its starts and ends:
    /// a hook that holds undelivered signals resends them here.
    fn flush(&mut self) {}
}

/// Blanket hook from a pair of closures.
impl<F, G> SchedulerHook for (F, G)
where
    F: FnMut(&Job) + Send,
    G: FnMut(&Job) + Send,
{
    fn on_job_start(&mut self, job: &Job) {
        (self.0)(job)
    }

    fn on_job_end(&mut self, job: &Job) {
        (self.1)(job)
    }
}

/// FCFS + conservative-backfill batch scheduler over a fixed node pool.
pub struct Scheduler {
    nodes: Vec<String>,
    /// `free[i]` ↔ `nodes[i]` is unallocated.
    free: Vec<bool>,
    jobs: Vec<Job>,
    queue: VecDeque<JobId>,
    next_id: JobId,
    clock: Clock,
    hooks: Vec<Box<dyn SchedulerHook>>,
}

impl Scheduler {
    /// A scheduler over the given node names.
    pub fn new<I, S>(nodes: I, clock: Clock) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let nodes: Vec<String> = nodes.into_iter().map(Into::into).collect();
        let free = vec![true; nodes.len()];
        Scheduler {
            nodes,
            free,
            jobs: Vec::new(),
            queue: VecDeque::new(),
            next_id: 1000,
            clock,
            hooks: Vec::new(),
        }
    }

    /// Registers a lifecycle hook.
    pub fn add_hook(&mut self, hook: Box<dyn SchedulerHook>) {
        self.hooks.push(hook);
    }

    /// Submits a job; returns its id. Jobs requesting more nodes than the
    /// cluster has are cancelled immediately.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = self.next_id;
        self.next_id += 1;
        let state =
            if spec.num_nodes > self.nodes.len() { JobState::Cancelled } else { JobState::Pending };
        let pending = state == JobState::Pending;
        self.jobs.push(Job {
            id,
            spec,
            submitted: self.clock.now(),
            state,
            hosts: Vec::new(),
        });
        if pending {
            self.queue.push_back(id);
        }
        id
    }

    /// Looks a job up by id.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// All jobs.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Currently running jobs.
    pub fn running(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(|j| j.state.is_running())
    }

    /// Number of free nodes.
    pub fn free_nodes(&self) -> usize {
        self.free.iter().filter(|&&f| f).count()
    }

    /// Queue length.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Advances the scheduler: flushes every hook, completes due jobs,
    /// then allocates. Call after every clock advance (or on a fixed
    /// cadence).
    pub fn tick(&mut self) {
        for hook in &mut self.hooks {
            hook.flush();
        }
        let now = self.clock.now();
        self.complete_due(now);
        self.allocate(now);
    }

    fn complete_due(&mut self, now: Timestamp) {
        let mut ended = Vec::new();
        for job in &mut self.jobs {
            if let JobState::Running { started } = job.state {
                let due = started.add(job.spec.runtime.min(job.spec.walltime));
                if now >= due {
                    job.state = JobState::Completed { started, ended: now };
                    ended.push(job.id);
                }
            }
        }
        for id in ended {
            let job_idx = self.jobs.iter().position(|j| j.id == id).expect("just saw it");
            // Free the nodes.
            let hosts: Vec<String> = self.jobs[job_idx].hosts.clone();
            for host in &hosts {
                if let Some(i) = self.nodes.iter().position(|n| n == host) {
                    self.free[i] = true;
                }
            }
            let job = self.jobs[job_idx].clone();
            for hook in &mut self.hooks {
                hook.on_job_end(&job);
            }
        }
    }

    fn allocate(&mut self, now: Timestamp) {
        loop {
            let Some(&head) = self.queue.front() else { return };
            let head_nodes = self.job(head).expect("queued job exists").spec.num_nodes;
            if head_nodes <= self.free_nodes() {
                self.queue.pop_front();
                self.start_job(head, now);
                continue;
            }
            // Head does not fit. Try conservative backfill: a later job may
            // run now iff it fits in the free nodes AND finishes before the
            // head's earliest possible start (so the head is never delayed).
            let Some(shadow) = self.earliest_start_for(head_nodes, now) else { return };
            let mut backfilled = false;
            let candidates: Vec<JobId> = self.queue.iter().copied().skip(1).collect();
            for id in candidates {
                let job = self.job(id).expect("queued job exists");
                let fits = job.spec.num_nodes <= self.free_nodes();
                let finishes_in_time = now.add(job.spec.walltime) <= shadow;
                if fits && finishes_in_time {
                    self.queue.retain(|&q| q != id);
                    self.start_job(id, now);
                    backfilled = true;
                    break;
                }
            }
            if !backfilled {
                return;
            }
        }
    }

    /// Earliest time at which `want` nodes will be free, assuming running
    /// jobs hold their nodes until their full walltime.
    fn earliest_start_for(&self, want: usize, now: Timestamp) -> Option<Timestamp> {
        let mut releases: Vec<(Timestamp, usize)> = self
            .jobs
            .iter()
            .filter_map(|j| match j.state {
                JobState::Running { started } => {
                    Some((started.add(j.spec.walltime), j.hosts.len()))
                }
                _ => None,
            })
            .collect();
        releases.sort();
        let mut available = self.free_nodes();
        if available >= want {
            return Some(now);
        }
        for (at, n) in releases {
            available += n;
            if available >= want {
                return Some(at);
            }
        }
        None // cannot ever fit (should not happen: submit() rejects oversize)
    }

    fn start_job(&mut self, id: JobId, now: Timestamp) {
        let job_idx = self.jobs.iter().position(|j| j.id == id).expect("job exists");
        let want = self.jobs[job_idx].spec.num_nodes;
        let mut hosts = Vec::with_capacity(want);
        for (i, free) in self.free.iter_mut().enumerate() {
            if hosts.len() == want {
                break;
            }
            if *free {
                *free = false;
                hosts.push(self.nodes[i].clone());
            }
        }
        debug_assert_eq!(hosts.len(), want);
        self.jobs[job_idx].hosts = hosts;
        self.jobs[job_idx].state = JobState::Running { started: now };
        let job = self.jobs[job_idx].clone();
        for hook in &mut self.hooks {
            hook.on_job_start(&job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn sched(n: usize) -> (Scheduler, Clock) {
        let clock = Clock::simulated(Timestamp::from_secs(0));
        let nodes: Vec<String> = (1..=n).map(|i| format!("n{i:02}")).collect();
        (Scheduler::new(nodes, clock.clone()), clock)
    }

    #[test]
    fn fcfs_allocation_and_completion() {
        let (mut s, clock) = sched(4);
        let a = s.submit(JobSpec::new("alice", "a", 2, Duration::from_secs(100)));
        let b = s.submit(JobSpec::new("bob", "b", 2, Duration::from_secs(50)));
        s.tick();
        assert!(s.job(a).unwrap().state.is_running());
        assert!(s.job(b).unwrap().state.is_running());
        assert_eq!(s.job(a).unwrap().hosts(), &["n01", "n02"]);
        assert_eq!(s.job(b).unwrap().hosts(), &["n03", "n04"]);
        assert_eq!(s.free_nodes(), 0);

        clock.advance(Duration::from_secs(60));
        s.tick();
        assert!(s.job(b).unwrap().state.is_completed());
        assert!(s.job(a).unwrap().state.is_running());
        assert_eq!(s.free_nodes(), 2);
    }

    #[test]
    fn queue_waits_for_free_nodes() {
        let (mut s, clock) = sched(2);
        let a = s.submit(JobSpec::new("u", "a", 2, Duration::from_secs(100)));
        let b = s.submit(JobSpec::new("u", "b", 2, Duration::from_secs(100)));
        s.tick();
        assert!(s.job(a).unwrap().state.is_running());
        assert_eq!(s.job(b).unwrap().state, JobState::Pending);
        assert_eq!(s.queued(), 1);
        clock.advance(Duration::from_secs(101));
        s.tick();
        assert!(s.job(a).unwrap().state.is_completed());
        assert!(s.job(b).unwrap().state.is_running());
    }

    #[test]
    fn conservative_backfill_runs_short_jobs_in_holes() {
        let (mut s, clock) = sched(4);
        // a: 2 nodes × 100s; head c needs 4 nodes → must wait for a.
        let a = s.submit(JobSpec::new("u", "a", 2, Duration::from_secs(100)));
        s.tick();
        let c = s.submit(JobSpec::new("u", "c", 4, Duration::from_secs(100)));
        // d fits in the 2 free nodes and (50s) finishes before a does (100s):
        let d = s.submit(JobSpec::new("u", "d", 2, Duration::from_secs(50)));
        // e also fits but is too long (200s > a's remaining 100s) → no backfill.
        let e = s.submit(JobSpec::new("u", "e", 2, Duration::from_secs(200)));
        s.tick();
        assert!(s.job(d).unwrap().state.is_running(), "short job backfilled");
        assert_eq!(s.job(c).unwrap().state, JobState::Pending);
        assert_eq!(s.job(e).unwrap().state, JobState::Pending);

        // Head starts exactly when a ends — backfill never delayed it.
        clock.advance(Duration::from_secs(100));
        s.tick();
        assert!(s.job(a).unwrap().state.is_completed());
        assert!(s.job(c).unwrap().state.is_running());
        let _ = e;
    }

    #[test]
    fn oversize_jobs_cancelled_and_cancel_works() {
        let (mut s, _clock) = sched(2);
        let big = s.submit(JobSpec::new("u", "big", 5, Duration::from_secs(10)));
        assert_eq!(s.job(big).unwrap().state, JobState::Cancelled);
        let a = s.submit(JobSpec::new("u", "a", 2, Duration::from_secs(10)));
        let b = s.submit(JobSpec::new("u", "b", 2, Duration::from_secs(10)));
        s.tick();
        assert!(s.job(a).unwrap().state.is_running());
        assert_eq!(s.job(b).unwrap().state, JobState::Pending, "a fitting job only waits");
    }

    #[test]
    fn hooks_fire_with_host_lists() {
        let (mut s, clock) = sched(2);
        let events: Arc<Mutex<Vec<String>>> = Arc::default();
        let (ev1, ev2) = (events.clone(), events.clone());
        s.add_hook(Box::new((
            move |job: &Job| {
                ev1.lock().push(format!("start {} on {}", job.id, job.hosts().join(",")))
            },
            move |job: &Job| ev2.lock().push(format!("end {}", job.id)),
        )));
        let id = s.submit(JobSpec::new("u", "j", 2, Duration::from_secs(30)));
        s.tick();
        clock.advance(Duration::from_secs(31));
        s.tick();
        let got = events.lock().clone();
        assert_eq!(got, vec![format!("start {id} on n01,n02"), format!("end {id}")]);
    }

    #[test]
    fn runtime_shorter_than_walltime() {
        let (mut s, clock) = sched(1);
        let id = s.submit(JobSpec {
            runtime: Duration::from_secs(10),
            ..JobSpec::new("u", "early", 1, Duration::from_secs(100))
        });
        s.tick();
        clock.advance(Duration::from_secs(11));
        s.tick();
        assert!(s.job(id).unwrap().state.is_completed());
    }

    #[test]
    fn job_ids_are_sequential_and_tagged() {
        let (mut s, _clock) = sched(1);
        let a = s.submit(JobSpec::new("u", "a", 1, Duration::from_secs(1)));
        let b = s.submit(JobSpec::new("u", "b", 1, Duration::from_secs(1)));
        assert_eq!(b, a + 1);
    }
}
