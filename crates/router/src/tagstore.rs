//! The tag store: hostname → job tags.
//!
//! "The signals are piggy-backed with tags, which are attached to all
//! measurements and events from the participating hosts during the job's
//! runtime. … Since all received metrics contain the hostname tag, the
//! hostname can be used as key for the hash table of the tag store."
//!
//! The store tracks which job owns which hosts; a job-end signal removes
//! exactly the tags its start installed. Nodes are assumed job-exclusive
//! (the commodity-cluster setting of the paper); a second job starting on
//! an occupied host replaces the mapping and the stale job's end signal
//! then leaves the newer mapping alone.

use lms_lineproto::escape::escape_tag_into;
use lms_util::FxHashMap;
use std::sync::Arc;

/// A parsed job lifecycle signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSignal {
    /// Job identifier (scheduler job id).
    pub job_id: String,
    /// Owning user.
    pub user: String,
    /// Participating hostnames.
    pub hosts: Vec<String>,
    /// Additional tags to attach (queue, account, ...).
    pub extra_tags: Vec<(String, String)>,
}

/// One job's tags as the router attaches them: one value per key, sorted by
/// key, each also pre-rendered as the `,key=value` text (wire-escaped) the
/// write path splices into a line.
#[derive(Debug)]
pub struct JobTags {
    pairs: Vec<(String, String)>,
    wire: Vec<String>,
}

impl JobTags {
    /// `jobid`, `user` and the signal's extra tags. An extra tag cannot
    /// replace `jobid`, `user` or `hostname`; of repeated extra keys the
    /// last wins.
    fn of(signal: &JobSignal) -> Self {
        let extras = signal
            .extra_tags
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "jobid" | "user" | "hostname"))
            .map(|(k, v)| (k.as_str(), v));
        let reserved = [("jobid", &signal.job_id), ("user", &signal.user)];
        let mut pairs: Vec<(String, String)> = Vec::with_capacity(2 + signal.extra_tags.len());
        for (k, v) in reserved.into_iter().chain(extras) {
            match pairs.binary_search_by(|(key, _)| key.as_str().cmp(k)) {
                Ok(i) => pairs[i].1.clone_from(v),
                Err(i) => pairs.insert(i, (k.to_string(), v.clone())),
            }
        }
        let wire = pairs
            .iter()
            .map(|(k, v)| {
                let mut w = String::with_capacity(k.len() + v.len() + 2);
                w.push(',');
                escape_tag_into(k, &mut w);
                w.push('=');
                escape_tag_into(v, &mut w);
                w
            })
            .collect();
        JobTags { pairs, wire }
    }

    /// `(key, value)` pairs, ascending by key.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Each pair as `,key=value` with wire escaping, in the order of
    /// [`pairs`](Self::pairs).
    pub fn wire(&self) -> &[String] {
        &self.wire
    }

    /// The job's `user` tag.
    pub fn user(&self) -> Option<&str> {
        let i = self.pairs.binary_search_by(|(k, _)| k.as_str().cmp("user")).ok()?;
        Some(&self.pairs[i].1)
    }
}

#[derive(Debug, Clone)]
struct HostEntry {
    job_id: String,
    /// The job's tag set, shared by all its hosts.
    tags: Arc<JobTags>,
}

/// Hostname-keyed tag store.
#[derive(Debug, Default)]
pub struct TagStore {
    hosts: FxHashMap<String, HostEntry>,
    /// job id → hosts (for end-signal cleanup and admin views).
    jobs: FxHashMap<String, Vec<String>>,
}

impl TagStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a job-start signal: installs tags on all its hosts.
    ///
    /// A repeated start for the same job id (e.g. a requeued job) first
    /// clears the previous host mapping so no stale host keeps the tags.
    pub fn job_start(&mut self, signal: &JobSignal) {
        self.job_end(&signal.job_id);
        let tags = Arc::new(JobTags::of(signal));
        for host in &signal.hosts {
            self.hosts.insert(
                host.clone(),
                HostEntry { job_id: signal.job_id.clone(), tags: Arc::clone(&tags) },
            );
        }
        self.jobs.insert(signal.job_id.clone(), signal.hosts.clone());
    }

    /// Applies a job-end signal: removes the job's tags from hosts that
    /// still belong to it. Unknown job ids are a no-op (duplicate end
    /// signals are routine in schedulers).
    pub fn job_end(&mut self, job_id: &str) {
        let Some(hosts) = self.jobs.remove(job_id) else { return };
        for host in hosts {
            if self.hosts.get(&host).is_some_and(|e| e.job_id == job_id) {
                self.hosts.remove(&host);
            }
        }
    }

    /// The tags of a host, sorted by key (empty slice when no job runs
    /// there).
    pub fn tags_of(&self, hostname: &str) -> &[(String, String)] {
        self.job_tags(hostname).map_or(&[], JobTags::pairs)
    }

    /// The job tags of a host, `None` when no job runs there.
    pub fn job_tags(&self, hostname: &str) -> Option<&JobTags> {
        self.hosts.get(hostname).map(|e| &*e.tags)
    }

    /// The hosts of a running job.
    pub fn hosts_of(&self, job_id: &str) -> Option<&[String]> {
        self.jobs.get(job_id).map(Vec::as_slice)
    }

    /// All running job ids, sorted (admin view).
    pub fn running_jobs(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = self.jobs.keys().map(String::as_str).collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `jobid` tag of the job on `host`.
    fn job_of<'a>(ts: &'a TagStore, host: &str) -> Option<&'a str> {
        ts.tags_of(host).iter().find(|(k, _)| k == "jobid").map(|(_, v)| v.as_str())
    }

    fn signal(job: &str, user: &str, hosts: &[&str]) -> JobSignal {
        JobSignal {
            job_id: job.into(),
            user: user.into(),
            hosts: hosts.iter().map(|h| h.to_string()).collect(),
            extra_tags: vec![("queue".into(), "batch".into())],
        }
    }

    #[test]
    fn start_installs_tags_on_all_hosts() {
        let mut ts = TagStore::new();
        ts.job_start(&signal("42", "alice", &["h1", "h2"]));
        for h in ["h1", "h2"] {
            let tags = ts.tags_of(h);
            assert!(tags.contains(&("jobid".into(), "42".into())));
            assert!(tags.contains(&("user".into(), "alice".into())));
            assert!(tags.contains(&("queue".into(), "batch".into())));
        }
        assert!(ts.tags_of("h3").is_empty());
        assert_eq!(job_of(&ts, "h1"), Some("42"));
        assert_eq!(ts.hosts_of("42").unwrap().len(), 2);
    }

    #[test]
    fn job_tags_are_sorted_unique_and_pre_escaped() {
        let mut s = signal("42", "alice", &["h1"]);
        s.extra_tags = vec![
            ("queue".into(), "a b".into()),
            ("acct".into(), "x=1,y".into()),
            ("queue".into(), "c".into()),
        ];
        let mut ts = TagStore::new();
        ts.job_start(&s);
        let job = ts.job_tags("h1").unwrap();
        let pairs: Vec<(&str, &str)> =
            job.pairs().iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        assert_eq!(pairs, [("acct", "x=1,y"), ("jobid", "42"), ("queue", "c"), ("user", "alice")]);
        assert_eq!(job.wire(), [r",acct=x\=1\,y", ",jobid=42", ",queue=c", ",user=alice"]);
        assert_eq!(job.user(), Some("alice"));
        assert!(ts.job_tags("h2").is_none());
    }

    #[test]
    fn end_removes_only_its_hosts() {
        let mut ts = TagStore::new();
        ts.job_start(&signal("42", "alice", &["h1", "h2"]));
        ts.job_start(&signal("43", "bob", &["h3"]));
        ts.job_end("42");
        assert!(ts.tags_of("h1").is_empty());
        assert!(ts.tags_of("h2").is_empty());
        assert_eq!(job_of(&ts, "h3"), Some("43"));
        assert_eq!(ts.running_jobs(), vec!["43"]);
    }

    #[test]
    fn duplicate_end_is_noop() {
        let mut ts = TagStore::new();
        ts.job_start(&signal("42", "alice", &["h1"]));
        ts.job_end("42");
        ts.job_end("42");
        ts.job_end("never-existed");
        assert!(ts.tags_of("h1").is_empty() && ts.running_jobs().is_empty());
    }

    #[test]
    fn overlapping_job_replaces_and_stale_end_is_safe() {
        let mut ts = TagStore::new();
        ts.job_start(&signal("42", "alice", &["h1"]));
        // Scheduler reuses the node before the old end signal arrived.
        ts.job_start(&signal("99", "bob", &["h1"]));
        assert_eq!(job_of(&ts, "h1"), Some("99"));
        // The stale end for 42 must NOT strip job 99's tags.
        ts.job_end("42");
        assert_eq!(job_of(&ts, "h1"), Some("99"));
        ts.job_end("99");
        assert!(ts.tags_of("h1").is_empty());
    }

    #[test]
    fn reserved_extra_tags_are_filtered() {
        let mut ts = TagStore::new();
        let mut s = signal("42", "alice", &["h1"]);
        s.extra_tags.push(("jobid".into(), "evil".into()));
        s.extra_tags.push(("hostname".into(), "spoof".into()));
        ts.job_start(&s);
        let tags = ts.tags_of("h1");
        assert_eq!(tags.iter().filter(|(k, _)| k == "jobid").count(), 1);
        assert!(tags.contains(&("jobid".into(), "42".into())));
        assert!(!tags.iter().any(|(k, _)| k == "hostname"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        // Random interleavings of start/end signals keep the store
        // consistent: every tagged host belongs to a running job that
        // lists it.
        proptest! {
            #[test]
            fn store_stays_consistent(ops in proptest::collection::vec(
                (0u8..2, 0u8..8, proptest::collection::vec(0u8..6, 1..4)), 1..40
            )) {
                let mut ts = TagStore::new();
                for (kind, job, hosts) in ops {
                    let job_id = format!("j{job}");
                    if kind == 0 {
                        let hosts: Vec<&str> = hosts.iter().map(|h| match h {
                            0 => "h0", 1 => "h1", 2 => "h2", 3 => "h3", 4 => "h4", _ => "h5",
                        }).collect();
                        let s = JobSignal {
                            job_id: job_id.clone(),
                            user: "u".into(),
                            hosts: hosts.iter().map(|h| h.to_string()).collect(),
                            extra_tags: vec![],
                        };
                        ts.job_start(&s);
                    } else {
                        ts.job_end(&job_id);
                    }
                    // Invariant: every tagged host's job is in running_jobs.
                    for h in ["h0", "h1", "h2", "h3", "h4", "h5"] {
                        if let Some(j) = job_of(&ts, h) {
                            prop_assert!(ts.running_jobs().contains(&j));
                            prop_assert!(ts.hosts_of(j).unwrap().iter().any(|x| x == h));
                        }
                    }
                }
            }
        }
    }
}
