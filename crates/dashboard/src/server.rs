//! The Webviewer: HTTP access to generated dashboards (Fig. 1's
//! "Webviewer" box, with "User View" and "Admin View").
//!
//! | endpoint | behaviour |
//! |---|---|
//! | `GET /ping` | liveness |
//! | `GET /jobs` | running jobs as JSON |
//! | `GET /dashboard?job=<id>` | the job's generated dashboard (Grafana-style JSON) |
//! | `GET /render?job=<id>` | the dashboard rendered to text (headless view) |
//! | `GET /admin` | the administrators' overview as text |

use crate::render::RenderOptions;
use crate::viewer::{JobInfo, ViewerAgent};
use lms_http::{Request, Response, Server};
use lms_influx::QuerySource;
use lms_util::{Clock, Json, Result};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// Source of job information for the viewer (fed by the scheduler or the
/// router's tag store).
pub trait JobDirectory: Send + Sync {
    /// The currently running jobs.
    fn running_jobs(&self) -> Vec<JobInfo>;

    /// Looks a job up by id (running or recently completed).
    fn job(&self, jobid: &str) -> Option<JobInfo>;
}

/// Produces a fresh query handle per request (the embedded [`lms_influx::Influx`]
/// clones cheaply; a remote deployment would open an `InfluxClient`).
pub type SourceFactory = Arc<dyn Fn() -> Box<dyn QuerySource + Send> + Send + Sync>;

/// A running webviewer server.
pub struct ViewerServer {
    server: Server,
}

impl ViewerServer {
    /// Starts serving.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        agent: Arc<ViewerAgent>,
        source_factory: SourceFactory,
        directory: Arc<dyn JobDirectory>,
        clock: Clock,
    ) -> Result<Self> {
        let server = Server::bind(addr, 32, move |req| {
            handle(&agent, &source_factory, &*directory, &clock, req)
        })?;
        Ok(ViewerServer { server })
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the server.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

fn job_json(job: &JobInfo) -> Json {
    Json::obj([
        ("jobid", Json::str(&job.jobid)),
        ("user", Json::str(&job.user)),
        ("hosts", Json::arr(job.hosts.iter().map(|h| Json::str(h.as_str())))),
        ("start", Json::from(job.start.nanos())),
        (
            "end",
            job.end.map(|e| Json::from(e.nanos())).unwrap_or(Json::Null),
        ),
    ])
}

fn handle(
    agent: &ViewerAgent,
    source_factory: &SourceFactory,
    directory: &dyn JobDirectory,
    clock: &Clock,
    req: Request,
) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/ping") | ("HEAD", "/ping") => Response::no_content(),
        ("GET", "/jobs") => {
            let jobs = directory.running_jobs();
            Response::json(200, Json::arr(jobs.iter().map(job_json)).to_string())
        }
        ("GET", "/dashboard") | ("GET", "/render") => {
            let Some(jobid) = req.query_param("job") else {
                return Response::bad_request("missing `job` parameter");
            };
            let Some(job) = directory.job(jobid) else {
                return Response::not_found(&format!("job {jobid}"));
            };
            let mut source = source_factory();
            let now = clock.now();
            match agent.job_dashboard(source.as_mut(), &job, now) {
                Ok(dashboard) if req.path == "/dashboard" => {
                    Response::json(200, dashboard.to_json().to_pretty())
                }
                Ok(dashboard) => {
                    match agent.render_dashboard(
                        source.as_mut(),
                        &dashboard,
                        RenderOptions::default(),
                    ) {
                        Ok(text) => Response::text(200, text),
                        Err(e) => Response::text(500, e.to_string()),
                    }
                }
                Err(e) => Response::text(500, e.to_string()),
            }
        }
        ("GET", "/admin") => {
            let jobs = directory.running_jobs();
            let mut source = source_factory();
            match agent.admin_view(source.as_mut(), &jobs, clock.now()) {
                Ok(view) => Response::text(200, view.text),
                Err(e) => Response::text(500, e.to_string()),
            }
        }
        _ => Response::not_found("unknown endpoint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::TemplateStore;
    use lms_analysis::evaluation::NodePeaks;
    use lms_http::HttpClient;
    use lms_influx::Influx;
    use lms_util::Timestamp;
    use parking_lot::RwLock;

    struct StaticDirectory(RwLock<Vec<JobInfo>>);

    impl JobDirectory for StaticDirectory {
        fn running_jobs(&self) -> Vec<JobInfo> {
            self.0.read().clone()
        }

        fn job(&self, jobid: &str) -> Option<JobInfo> {
            self.0.read().iter().find(|j| j.jobid == jobid).cloned()
        }
    }

    fn fixture() -> (Influx, JobInfo) {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(4000))).unwrap();
        let mut batch = String::new();
        for s in (0..1800).step_by(60) {
            let ts = s as i64 * 1_000_000_000;
            batch.push_str(&format!(
                "cpu_total,hostname=h1 busy=0.9 {ts}\n\
                 hpm_flops_dp,hostname=h1 dp_mflop_s=120000,ipc=2.0,vectorization_ratio=90 {ts}\n"
            ));
        }
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        (
            ix,
            JobInfo {
                jobid: "42".into(),
                user: "alice".into(),
                hosts: vec!["h1".into()],
                start: Timestamp::from_secs(0),
                end: None,
            },
        )
    }

    fn start() -> (ViewerServer, HttpClient) {
        let (ix, job) = fixture();
        let agent = Arc::new(ViewerAgent::new(
            "lms",
            TemplateStore::builtin(),
            NodePeaks { flops_mflops: 350_000.0, membw_mbytes: 84_000.0 },
        ));
        let factory: SourceFactory = {
            let ix = ix.clone();
            Arc::new(move || Box::new(ix.clone()) as Box<dyn QuerySource + Send>)
        };
        let directory = Arc::new(StaticDirectory(RwLock::new(vec![job])));
        let server = ViewerServer::start(
            "127.0.0.1:0",
            agent,
            factory,
            directory,
            Clock::simulated(Timestamp::from_secs(1800)),
        )
        .unwrap();
        let client = HttpClient::connect(server.addr()).unwrap();
        (server, client)
    }

    #[test]
    fn jobs_endpoint_lists_running() {
        let (server, mut c) = start();
        let r = c.get("/jobs").unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        assert_eq!(json.idx(0).unwrap().get("jobid").unwrap().as_str(), Some("42"));
        assert_eq!(json.idx(0).unwrap().get("user").unwrap().as_str(), Some("alice"));
        assert!(json.idx(0).unwrap().get("end").unwrap().is_null());
        server.shutdown();
    }

    #[test]
    fn dashboard_endpoint_returns_grafana_json() {
        let (server, mut c) = start();
        let r = c.get("/dashboard?job=42").unwrap();
        assert_eq!(r.status, 200);
        let json = Json::parse(&r.body_str()).unwrap();
        let dashboard = crate::model::Dashboard::from_json(&json).unwrap();
        assert_eq!(dashboard.title, "Job 42 (alice)");
        assert!(dashboard.rows.len() >= 2);
        server.shutdown();
    }

    #[test]
    fn render_endpoint_returns_text_charts() {
        let (server, mut c) = start();
        let r = c.get("/render?job=42").unwrap();
        assert_eq!(r.status, 200);
        let text = r.body_str();
        assert!(text.contains("##### Job 42 (alice) #####"));
        assert!(text.contains("== DP FLOP rate ==") && text.contains(" h1  (n="), "{text}");
        server.shutdown();
    }

    #[test]
    fn admin_endpoint() {
        let (server, mut c) = start();
        let r = c.get("/admin").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body_str().contains("alice"));
        server.shutdown();
    }

    #[test]
    fn errors() {
        let (server, mut c) = start();
        assert_eq!(c.get("/dashboard").unwrap().status, 400);
        assert_eq!(c.get("/dashboard?job=999").unwrap().status, 404);
        assert_eq!(c.get("/nope").unwrap().status, 404);
        assert_eq!(c.get("/ping").unwrap().status, 204);
        server.shutdown();
    }
}
