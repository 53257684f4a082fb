//! The persistent crawl-job queue: `JOBS.json`.
//!
//! The job store root is a directory holding one `JOBS.json` plus one
//! bundle subdirectory per job (`job-000`, `job-001`, ...). `JOBS.json`
//! follows the same crash-safety discipline as a bundle's
//! `MANIFEST.json` and a shard plan's `SHARDS.json`: every mutation
//! rewrites the whole file atomically (temp file + rename), so the
//! store is always a consistent snapshot and never a torn write.
//!
//! Crash recovery is a consequence of two facts: a job's *bundle* is
//! resumable (checkpointed per site, byte-identical after resume), and
//! a job left in [`JobState::Running`] by a dead process is flipped to
//! [`JobState::Interrupted`] on [`JobStore::open`] — which makes it
//! claimable again. Re-running an interrupted job picks the crawl up
//! from the bundle's last checkpoint, so no work is lost and the final
//! archive is byte-identical to an uninterrupted run.
//!
//! Idle job workers block in [`JobStore::wait_claim`] on a condvar
//! paired with the store's mutex: [`JobStore::submit`] wakes one of
//! them, [`JobStore::wake_all`] (drain and kill) wakes them all.

use crate::error::ServerError;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, PoisonError};
use wmtree::{ExperimentConfig, Scale};

/// Job store file name within the store root.
pub const JOBS_FILE: &str = "JOBS.json";

/// Format version this build reads and writes.
pub const JOBS_VERSION: u32 = 1;

/// What a client asks for when submitting a job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Scale preset name (see `Scale::NAMES`).
    pub scale: String,
    /// Universe seed override (default: the scale preset's seed).
    pub seed: Option<u64>,
    /// Crawl worker threads override, clamped to `1..=` the scale's
    /// default, the host's parallelism. Never affects results — crawls
    /// are deterministic across worker counts — only wall time.
    pub workers: Option<usize>,
}

impl JobSpec {
    /// Resolve the spec into a full experiment configuration, or a
    /// located error naming the invalid field.
    pub fn config(&self) -> Result<ExperimentConfig, ServerError> {
        let scale = Scale::parse(&self.scale).map_err(ServerError::bad_request)?;
        let mut config = ExperimentConfig::at_scale(scale);
        if let Some(seed) = self.seed {
            config.universe.seed = seed;
        }
        if let Some(workers) = self.workers {
            config.workers = workers.clamp(1, config.workers);
        }
        Ok(config)
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, not yet picked up by a job worker.
    Queued,
    /// A worker is crawling it right now (or the process holding it
    /// died — resolved to `Interrupted` on the next store open).
    Running,
    /// Stopped between batches (drain shutdown or crash recovery);
    /// claimable again, resumes from the bundle's last checkpoint.
    Interrupted,
    /// Crawl complete, bundle finished and content-hashed.
    Done,
    /// The job errored; `error` on the record says why.
    Failed,
}

impl JobState {
    /// Is this a state no worker will move the job out of?
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }

    /// Lowercase label used in JSON-facing summaries and lint output.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Interrupted => "interrupted",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// One job in the store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Dense id: the n-th submitted job has id `n`.
    pub id: usize,
    /// What was asked for.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Bundle subdirectory, relative to the store root (`job-000`).
    pub dir: String,
    /// Sites checkpointed so far.
    pub sites_done: usize,
    /// Sites in the job's universe (0 until first claimed).
    pub sites_total: usize,
    /// Content hash of the finished bundle; set exactly when the job
    /// reaches [`JobState::Done`]. This is the ETag of everything
    /// served from the job.
    pub bundle_hash: Option<String>,
    /// Failure message; set exactly when the job reaches
    /// [`JobState::Failed`].
    pub error: Option<String>,
}

/// The `JOBS.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobsFile {
    /// Format version ([`JOBS_VERSION`]).
    pub version: u32,
    /// All jobs ever submitted, in submission (= id) order.
    pub jobs: Vec<JobRecord>,
}

/// The persistent job queue over one store root.
#[derive(Debug)]
pub struct JobStore {
    root: PathBuf,
    inner: Mutex<JobsFile>,
    /// Signalled when a job becomes claimable or the workers must stop;
    /// waited on with `inner`'s guard.
    claimable: Condvar,
}

impl JobStore {
    /// Path of the `JOBS.json` under a store root.
    pub fn jobs_path(root: &Path) -> PathBuf {
        root.join(JOBS_FILE)
    }

    /// Open (or initialize) the job store at `root`, creating the
    /// directory if needed. Jobs left `Running` by a dead process are
    /// flipped to `Interrupted` so they get claimed and resumed;
    /// returns the store and how many jobs were recovered that way.
    pub fn open(root: &Path) -> Result<(JobStore, usize), ServerError> {
        if root.exists() && !root.is_dir() {
            return Err(ServerError::RootNotADirectory {
                path: root.to_path_buf(),
            });
        }
        std::fs::create_dir_all(root).map_err(|e| ServerError::io(root.display(), e))?;
        let path = JobStore::jobs_path(root);
        let mut file = if path.is_file() {
            let text =
                std::fs::read_to_string(&path).map_err(|e| ServerError::io(path.display(), e))?;
            let file: JobsFile =
                serde_json::from_str(&text).map_err(|e| ServerError::json(path.display(), e))?;
            if file.version != JOBS_VERSION {
                return Err(ServerError::UnsupportedVersion {
                    found: file.version,
                    supported: JOBS_VERSION,
                });
            }
            file
        } else {
            JobsFile {
                version: JOBS_VERSION,
                jobs: Vec::new(),
            }
        };
        let mut recovered = 0;
        for job in &mut file.jobs {
            if job.state == JobState::Running {
                job.state = JobState::Interrupted;
                recovered += 1;
            }
        }
        let store = JobStore {
            root: root.to_path_buf(),
            inner: Mutex::new(file),
            claimable: Condvar::new(),
        };
        store.persist(&store.inner.lock())?;
        Ok((store, recovered))
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The bundle directory of a job.
    pub fn bundle_dir(&self, job: &JobRecord) -> PathBuf {
        self.root.join(&job.dir)
    }

    /// Append a new queued job and persist. The spec is validated
    /// (scale name resolves) before anything is written.
    pub fn submit(&self, spec: JobSpec) -> Result<JobRecord, ServerError> {
        spec.config()?;
        let mut file = self.inner.lock();
        let id = file.jobs.len();
        let job = JobRecord {
            id,
            spec,
            state: JobState::Queued,
            dir: format!("job-{id:03}"),
            sites_done: 0,
            sites_total: 0,
            bundle_hash: None,
            error: None,
        };
        file.jobs.push(job.clone());
        self.persist(&file)?;
        self.claimable.notify_one();
        Ok(job)
    }

    /// Snapshot of one job.
    pub fn get(&self, id: usize) -> Result<JobRecord, ServerError> {
        let file = self.inner.lock();
        file.jobs.get(id).cloned().ok_or(ServerError::UnknownJob {
            id,
            n_jobs: file.jobs.len(),
        })
    }

    /// Snapshot of every job, in id order.
    pub fn list(&self) -> Vec<JobRecord> {
        self.inner.lock().jobs.clone()
    }

    /// Claim the lowest-id claimable job (`Queued` or `Interrupted`),
    /// marking it `Running` and persisting. `None` when the queue is
    /// drained.
    pub fn claim_next(&self) -> Result<Option<JobRecord>, ServerError> {
        self.claim_locked(&mut self.inner.lock())
    }

    /// Block until a job is claimable and claim it as
    /// [`claim_next`](Self::claim_next) does, or return `None` once
    /// `stop` holds. `stop` and the queue are checked under the store
    /// lock that the wait releases, so a stop raised before
    /// [`wake_all`](Self::wake_all) or a job submitted before its
    /// notification is never missed.
    pub fn wait_claim(&self, stop: impl Fn() -> bool) -> Result<Option<JobRecord>, ServerError> {
        let mut file = self.inner.lock();
        loop {
            if stop() {
                return Ok(None);
            }
            if let Some(job) = self.claim_locked(&mut file)? {
                return Ok(Some(job));
            }
            file = self
                .claimable
                .wait(file)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wake every worker blocked in [`wait_claim`](Self::wait_claim) so
    /// it re-checks its stop condition. Taking the lock orders this
    /// after any check still in progress.
    pub fn wake_all(&self) {
        let _file = self.inner.lock();
        self.claimable.notify_all();
    }

    fn claim_locked(&self, file: &mut JobsFile) -> Result<Option<JobRecord>, ServerError> {
        let Some(job) = file
            .jobs
            .iter_mut()
            .find(|j| matches!(j.state, JobState::Queued | JobState::Interrupted))
        else {
            return Ok(None);
        };
        job.state = JobState::Running;
        let claimed = job.clone();
        self.persist(file)?;
        Ok(Some(claimed))
    }

    /// Mutate one job under the store lock and persist the result.
    pub fn update<F>(&self, id: usize, f: F) -> Result<JobRecord, ServerError>
    where
        F: FnOnce(&mut JobRecord),
    {
        let mut file = self.inner.lock();
        let n_jobs = file.jobs.len();
        let job = file
            .jobs
            .get_mut(id)
            .ok_or(ServerError::UnknownJob { id, n_jobs })?;
        f(job);
        let updated = job.clone();
        self.persist(&file)?;
        Ok(updated)
    }

    /// Atomically rewrite `JOBS.json`.
    fn persist(&self, file: &JobsFile) -> Result<(), ServerError> {
        let body = serde_json::to_string_pretty(file)
            .map_err(|e| ServerError::json("serializing JOBS.json", e))?;
        let path = JobStore::jobs_path(&self.root);
        wmtree_bundle::atomic_replace(&path, format!("{body}\n").as_bytes())
            .map_err(|e| ServerError::io(path.display(), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-server-jobs-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(scale: &str) -> JobSpec {
        JobSpec {
            scale: scale.to_string(),
            seed: None,
            workers: Some(1),
        }
    }

    #[test]
    fn submit_assigns_dense_ids_and_persists() {
        let root = tmp("submit");
        let (store, recovered) = JobStore::open(&root).unwrap();
        assert_eq!(recovered, 0);
        let a = store.submit(spec("tiny")).unwrap();
        let b = store.submit(spec("small")).unwrap();
        assert_eq!((a.id, b.id), (0, 1));
        assert_eq!(a.dir, "job-000");
        assert_eq!(b.state, JobState::Queued);

        // Reopen from disk: same contents.
        let (store2, _) = JobStore::open(&root).unwrap();
        assert_eq!(store2.list(), store.list());
    }

    #[test]
    fn workers_clamp_to_the_scale_default() {
        let default = ExperimentConfig::at_scale(Scale::Tiny).workers;
        for (asked, got) in [(usize::MAX, default), (0, 1)] {
            let mut spec = spec("tiny");
            spec.workers = Some(asked);
            assert_eq!(spec.config().unwrap().workers, got, "{asked}");
        }
    }

    #[test]
    fn submit_rejects_unknown_scale_without_writing() {
        let root = tmp("reject");
        let (store, _) = JobStore::open(&root).unwrap();
        let err = store.submit(spec("paper")).unwrap_err();
        assert!(matches!(err, ServerError::BadRequest { .. }), "{err}");
        assert!(err.to_string().contains("paper"), "{err}");
        assert!(store.list().is_empty());
    }

    #[test]
    fn claim_marks_running_and_reopen_recovers_to_interrupted() {
        let root = tmp("claim");
        let (store, _) = JobStore::open(&root).unwrap();
        store.submit(spec("tiny")).unwrap();
        store.submit(spec("tiny")).unwrap();

        let claimed = store.claim_next().unwrap().unwrap();
        assert_eq!(claimed.id, 0);
        assert_eq!(store.get(0).unwrap().state, JobState::Running);

        // Simulate a crash: the process dies while job 0 is Running.
        // A fresh open flips it to Interrupted — claimable again, and
        // claimed *before* the queued job 1.
        let (store2, recovered) = JobStore::open(&root).unwrap();
        assert_eq!(recovered, 1);
        assert_eq!(store2.get(0).unwrap().state, JobState::Interrupted);
        let reclaimed = store2.claim_next().unwrap().unwrap();
        assert_eq!(reclaimed.id, 0);
    }

    #[test]
    fn update_transitions_and_unknown_ids_error() {
        let root = tmp("update");
        let (store, _) = JobStore::open(&root).unwrap();
        store.submit(spec("tiny")).unwrap();
        let done = store
            .update(0, |j| {
                j.state = JobState::Done;
                j.bundle_hash = Some("00ff00ff00ff00ff".to_string());
            })
            .unwrap();
        assert!(done.state.is_terminal());
        let err = store.get(7).unwrap_err();
        assert!(matches!(err, ServerError::UnknownJob { id: 7, n_jobs: 1 }));
        assert!(err.to_string().contains("no such job 7"), "{err}");
    }

    #[test]
    fn version_gate() {
        let root = tmp("version");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(
            JobStore::jobs_path(&root),
            "{\"version\": 99, \"jobs\": []}",
        )
        .unwrap();
        assert!(matches!(
            JobStore::open(&root),
            Err(ServerError::UnsupportedVersion {
                found: 99,
                supported: JOBS_VERSION
            })
        ));
    }
}
