//! The prolog/epilog hook that signals the metrics router.
//!
//! "The compute nodes or a central management server must send signals at
//! (de)allocation of a job to the router." — this is the central-server
//! variant: one [`HttpSignaler`] per scheduler POSTs `/signal/start` and
//! `/signal/end` with the job id, user, host list and extra tags.

use crate::scheduler::{Job, SchedulerHook};
use lms_http::HttpClient;
use lms_util::Result;
use std::net::{SocketAddr, ToSocketAddrs};

/// A [`SchedulerHook`] delivering signals to a router over HTTP.
pub struct HttpSignaler {
    client: HttpClient,
    errors: u64,
}

impl HttpSignaler {
    /// Connects (lazily) to the router at `addr`.
    pub fn new<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        Ok(HttpSignaler { client: HttpClient::connect(addr)?, errors: 0 })
    }

    /// The router address.
    pub fn addr(&self) -> SocketAddr {
        self.client.addr()
    }

    fn signal_start(&mut self, job: &Job) {
        let mut target = format!(
            "/signal/start?job={}&user={}&hosts={}",
            job.id,
            lms_http::url::percent_encode(&job.spec.user),
            lms_http::url::percent_encode(&job.hosts().join(","))
        );
        for (k, v) in &job.spec.tags {
            target.push('&');
            target.push_str(&lms_http::url::percent_encode(k));
            target.push('=');
            target.push_str(&lms_http::url::percent_encode(v));
        }
        if self.client.post(&target, b"").map(|r| !r.is_success()).unwrap_or(true) {
            self.errors += 1;
        }
    }

    fn signal_end(&mut self, job: &Job) {
        let target = format!("/signal/end?job={}", job.id);
        if self.client.post(&target, b"").map(|r| !r.is_success()).unwrap_or(true) {
            self.errors += 1;
        }
    }

    /// Signals that failed to deliver.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

impl SchedulerHook for HttpSignaler {
    fn on_job_start(&mut self, job: &Job) {
        self.signal_start(job);
    }

    fn on_job_end(&mut self, job: &Job) {
        self.signal_end(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{JobSpec, Scheduler};
    use lms_util::{Clock, Timestamp};
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
        sched.add_hook(Box::new(HttpSignaler::new(server.addr()).unwrap()));

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
        let mut signaler = HttpSignaler::new(dead).unwrap();
        let mut sched = Scheduler::new(["n01"], clock.clone());
        let id = sched.submit(JobSpec::new("u", "x", 1, Duration::from_secs(1)));
        sched.tick();
        let job = sched.job(id).unwrap().clone();
        signaler.on_job_start(&job);
        assert_eq!(signaler.errors(), 1);
    }
}
