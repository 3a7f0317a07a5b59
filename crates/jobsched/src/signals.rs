//! The prolog/epilog hook that signals the metrics router.
//!
//! "The compute nodes or a central management server must send signals at
//! (de)allocation of a job to the router." — this is the central-server
//! variant: one [`HttpSignaler`] per scheduler POSTs `/signal/start` and
//! `/signal/end` with the job id, user, host list and extra tags.

use crate::scheduler::{Job, SchedulerHook};
use lms_http::{url::percent_encode, Sender, SenderStats};
use lms_util::{Clock, Result};
use std::net::ToSocketAddrs;

/// A [`SchedulerHook`] delivering signals to a router over HTTP. One
/// [`Sender`] carries them in order, so a job's end never overtakes its
/// start, and a signal the router sheds is resent.
pub struct HttpSignaler {
    sender: Sender,
}

impl HttpSignaler {
    /// Connects (lazily) to the router at `addr`; `clock` times resends.
    pub fn new<A: ToSocketAddrs>(addr: A, clock: Clock) -> Result<Self> {
        Ok(HttpSignaler { sender: Sender::http(addr, clock)? })
    }

    /// The sender's counters.
    pub fn stats(&self) -> SenderStats {
        self.sender.stats()
    }
}

impl SchedulerHook for HttpSignaler {
    fn on_job_start(&mut self, job: &Job) {
        let mut target = format!(
            "/signal/start?job={}&user={}&hosts={}",
            job.id,
            percent_encode(&job.spec.user),
            percent_encode(&job.hosts().join(","))
        );
        for (k, v) in &job.spec.tags {
            target.push('&');
            target.push_str(&percent_encode(k));
            target.push('=');
            target.push_str(&percent_encode(v));
        }
        self.sender.send(&target, "");
    }

    fn on_job_end(&mut self, job: &Job) {
        self.sender.send(&format!("/signal/end?job={}", job.id), "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{JobSpec, Scheduler};
    use lms_util::Timestamp;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn signals_reach_the_router_endpoints() {
        use lms_http::{Response, Server};
        let received: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = received.clone();
        let server = Server::bind("127.0.0.1:0", 1, move |req| {
            let q: Vec<String> =
                req.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
            sink.lock().push(format!("{} {}", req.path, q.join("&")));
            Response::no_content()
        })
        .unwrap();

        let clock = Clock::simulated(Timestamp::from_secs(0));
        let mut sched = Scheduler::new(["n01", "n02"], clock.clone());
        sched.add_hook(Box::new(HttpSignaler::new(server.addr(), clock.clone()).unwrap()));

        let id = sched.submit(JobSpec {
            tags: vec![("queue".into(), "devel".into())],
            ..JobSpec::new("alice", "md", 2, Duration::from_secs(10))
        });
        sched.tick();
        clock.advance(Duration::from_secs(11));
        sched.tick();

        let got = received.lock().clone();
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0],
            format!("/signal/start job={id}&user=alice&hosts=n01,n02&queue=devel")
        );
        assert_eq!(got[1], format!("/signal/end job={id}"));
        server.shutdown();
    }

    #[test]
    fn delivery_failures_counted_not_fatal() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let clock = Clock::simulated(Timestamp::from_secs(0));
        let mut signaler = HttpSignaler::new(dead, clock.clone()).unwrap();
        let mut sched = Scheduler::new(["n01"], clock.clone());
        let id = sched.submit(JobSpec::new("u", "x", 1, Duration::from_secs(1)));
        sched.tick();
        let job = sched.job(id).unwrap().clone();
        signaler.on_job_start(&job);
        // The signal is kept for a resend.
        let stats = signaler.stats();
        assert_eq!((stats.transport_errors, stats.queued), (1, 1));
    }

    #[test]
    fn a_shed_start_is_resent_before_the_end() {
        use lms_http::{Response, Server};
        use std::sync::atomic::{AtomicBool, Ordering};
        let accepted: Arc<Mutex<Vec<String>>> = Arc::default();
        let (sink, shed_once) = (accepted.clone(), AtomicBool::new(false));
        let server = Server::bind("127.0.0.1:0", 1, move |req| {
            if !shed_once.swap(true, Ordering::SeqCst) {
                return Response::service_unavailable("shed", 0);
            }
            sink.lock().push(format!("{} {}", req.path, req.query_param("job").unwrap()));
            Response::no_content()
        })
        .unwrap();
        let clock = Clock::simulated(Timestamp::from_secs(0));
        let mut sched = Scheduler::new(["n01"], clock.clone());
        sched.add_hook(Box::new(HttpSignaler::new(server.addr(), clock.clone()).unwrap()));
        let id = sched.submit(JobSpec::new("u", "x", 1, Duration::from_secs(10)));
        sched.tick();
        assert!(accepted.lock().is_empty(), "the start was shed");
        clock.advance(Duration::from_secs(11));
        sched.tick();
        assert_eq!(
            *accepted.lock(),
            [format!("/signal/start {id}"), format!("/signal/end {id}")]
        );
        server.shutdown();
    }
}
