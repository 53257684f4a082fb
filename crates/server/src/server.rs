//! The measurement service itself: listener, HTTP worker pool, job
//! workers, routing.
//!
//! Threading model: one accept thread feeds a bounded connection
//! channel drained by `http_workers` handler threads; `job_workers`
//! threads claim jobs from the persistent queue and crawl them in
//! resumable batches. Every thread is spawned through
//! [`std::thread::Builder`] and joined on shutdown — nothing detaches,
//! so the worker-count determinism discipline holds for the service
//! exactly as it does for the pipeline.
//!
//! No thread polls. Each blocks on the event it serves:
//!
//! - the accept thread in `accept` on a blocking listener; a stop wakes
//!   it with one connection to the listener's own address (loopback
//!   when it is bound to an unspecified one);
//! - the HTTP workers in the connection channel's `recv`, released when
//!   the accept thread exits and drops the sender;
//! - idle job workers on the job store's condvar
//!   ([`JobStore::wait_claim`]), woken by a submit or a stop.
//!
//! A panic ends only the unit of work it happened in: a request's
//! routing answers `500`, a job becomes `Failed`. The thread serving it
//! carries on, so nothing needs respawning.
//!
//! Shutdown has two shapes, both exercised by the e2e tests:
//!
//! - **drain** ([`ServerHandle::shutdown`] or `POST /shutdown`): stop
//!   accepting, finish in-flight responses, stop each running job at
//!   its next batch boundary and persist it as `Interrupted`.
//! - **kill** ([`ServerHandle::kill`]): abandon running jobs between
//!   batches *without* updating `JOBS.json` — the store is left
//!   exactly as a SIGKILL would leave it (jobs still `Running`), which
//!   is what the restart-recovery path is tested against.

use crate::cache::{CachedReplay, ReplayCache};
use crate::error::ServerError;
use crate::http::{Request, Response};
use crate::jobs::{JobRecord, JobSpec, JobState, JobStore};
use parking_lot::Mutex;
use serde::Serialize;
use std::any::Any;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;
use wmtree::crawler::ResumableOutcome;
use wmtree::Experiment;
use wmtree_bundle::{bundle_content_hash, BundleStore};
use wmtree_telemetry::{counter, gauge, Counter, MetricValue};
use wmtree_tree::{diff_trees, TreeDiff};

/// How the service is set up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Job store root: `JOBS.json` plus one bundle directory per job.
    pub root: PathBuf,
    /// Listen address; use port 0 to let the OS pick.
    pub addr: String,
    /// HTTP handler threads.
    pub http_workers: usize,
    /// Crawl worker threads (jobs claimed and run concurrently).
    pub job_workers: usize,
    /// Replays held by the LRU cache.
    pub cache_capacity: usize,
    /// Sites crawled per resumable batch; shutdown and kill act at
    /// batch boundaries, so this bounds drain latency.
    pub batch_sites: usize,
    /// Socket read/write timeout — a stalled client cannot pin a
    /// handler thread longer than this.
    pub read_timeout: Duration,
}

impl ServerConfig {
    /// Defaults for a store root: loopback on an OS-picked port, small
    /// pools sized for a test/CI machine.
    pub fn new(root: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            root: root.into(),
            addr: "127.0.0.1:0".to_string(),
            http_workers: 4,
            job_workers: 1,
            cache_capacity: 4,
            batch_sites: 4,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Pause after an `accept` or `claim_next` error before retrying, so a
/// persistent error (out of descriptors, an unwritable store) cannot
/// spin a core.
const ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// Longest a stop waits for its wake-up connection. The connection is
/// queued by the kernel, so it completes at once unless the backlog is
/// full — and then the accept thread is not blocked anyway.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Shutdown flags shared by every thread.
#[derive(Debug, Default)]
struct Shutdown {
    drain: AtomicBool,
    kill: AtomicBool,
}

impl Shutdown {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }
    fn killed(&self) -> bool {
        self.kill.load(Ordering::SeqCst)
    }
    fn stopping(&self) -> bool {
        self.draining() || self.killed()
    }
}

/// State shared across all server threads.
struct Shared {
    store: JobStore,
    cache: ReplayCache,
    shutdown: Shutdown,
    batch_sites: usize,
    /// Where a connection reaches the listener.
    listener: SocketAddr,
}

impl Shared {
    /// Raise the stop flags (`kill` raises both), then wake the threads
    /// blocked on an event: one connection releases the accept thread,
    /// a notification the idle job workers. Busy workers see the flags
    /// at their next check.
    fn stop(&self, kill: bool) {
        if kill {
            self.shutdown.kill.store(true, Ordering::SeqCst);
        }
        self.shutdown.drain.store(true, Ordering::SeqCst);
        // Refused once the accept thread has closed the listener:
        // then there is nothing left to wake.
        let _ = TcpStream::connect_timeout(&self.listener, WAKE_TIMEOUT);
        self.store.wake_all();
    }
}

/// The address a client uses to reach a listener bound to `bound`:
/// loopback in place of an unspecified address.
fn reachable(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Namespace for starting the service.
pub struct Server;

impl Server {
    /// Open the job store (recovering interrupted jobs), bind the
    /// listener, and spawn the accept/HTTP/job threads. Returns once
    /// the service is accepting connections.
    pub fn start(config: ServerConfig) -> Result<ServerHandle, ServerError> {
        let (store, recovered) = JobStore::open(&config.root)?;
        if recovered > 0 {
            counter!("server.jobs.recovered").add(recovered as u64);
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServerError::io(format!("binding {}", config.addr), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServerError::io("resolving local addr", e))?;

        let shared = Arc::new(Shared {
            store,
            cache: ReplayCache::new(config.cache_capacity),
            shutdown: Shutdown::default(),
            batch_sites: config.batch_sites.max(1),
            listener: reachable(addr),
        });

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(128);
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::new();

        let spawn = |name: String, f: Box<dyn FnOnce() + Send>| {
            thread::Builder::new()
                .name(name.clone())
                .spawn(f)
                .map_err(|e| ServerError::io(format!("spawning {name}"), e))
        };

        {
            let shared = Arc::clone(&shared);
            threads.push(spawn(
                "wmtree-accept".to_string(),
                Box::new(move || accept_loop(&shared, &listener, &tx)),
            )?);
        }
        for i in 0..config.http_workers.max(1) {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            let timeout = config.read_timeout;
            threads.push(spawn(
                format!("wmtree-http-{i}"),
                Box::new(move || http_worker(&shared, &rx, timeout)),
            )?);
        }
        for i in 0..config.job_workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(spawn(
                format!("wmtree-job-{i}"),
                Box::new(move || job_worker(&shared)),
            )?);
        }

        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

/// A running service; dropping without calling a stop method leaks the
/// threads, so tests and the CLI always consume the handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, finish in-flight work, persist
    /// running jobs as `Interrupted` at their next batch boundary, and
    /// join every thread.
    pub fn shutdown(mut self) {
        self.shared.stop(false);
        self.join();
    }

    /// Hard stop: like a crash. Running jobs are abandoned between
    /// batches and `JOBS.json` is left saying `Running`; the next
    /// [`Server::start`] over the same root recovers them.
    pub fn kill(mut self) {
        self.shared.stop(true);
        self.join();
    }

    /// Block until the server drains (e.g. a client sent
    /// `POST /shutdown`). Used by `repro serve`.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Accept connections until drain/kill; backpressure via the bounded
/// channel. The flags are checked before and after each blocking
/// `accept`, so the connection a stop makes ends the loop. Dropping
/// the sender on exit is what releases the HTTP workers from `recv`.
fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &mpsc::SyncSender<TcpStream>) {
    while !shared.shutdown.stopping() {
        match listener.accept() {
            // The wake-up, or a client arriving as the server stops:
            // dropped unserved, like any connection still queued.
            Ok(_) if shared.shutdown.stopping() => return,
            Ok((stream, _)) => {
                counter!("server.http.connections").inc();
                if tx.send(stream).is_err() {
                    return;
                }
            }
            Err(_) => thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// Drain the connection channel until it disconnects.
fn http_worker(shared: &Shared, rx: &Mutex<mpsc::Receiver<TcpStream>>, timeout: Duration) {
    loop {
        let next = {
            let guard = rx.lock();
            guard.recv()
        };
        match next {
            Ok(stream) => handle_connection(shared, stream, timeout),
            Err(_) => return,
        }
    }
}

/// Read one request, route it, write one response, close.
fn handle_connection(shared: &Shared, stream: TcpStream, timeout: Duration) {
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let response = match Request::read_from(&mut reader) {
        Ok(req) => {
            counter!("server.http.requests").inc();
            respond(|| handle_request(shared, &req))
        }
        Err(e) => {
            counter!("server.http.bad_requests").inc();
            error_response(400, &e.to_string())
        }
    };
    wmtree_telemetry::global()
        .metrics()
        .counter(&format!("server.http.status.{}xx", response.status / 100))
        .inc();
    let mut stream = stream;
    let _ = response.write_to(&mut stream);
}

/// Run one unit of work — a request's routing or a claimed job — so a
/// panic in it ends the unit and not the thread serving it. A panic is
/// counted on `panics` and returned as its message.
fn contain<T>(panics: &Counter, work: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        panics.inc();
        panic_message(payload)
    })
}

/// The message a panic was raised with.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or("a non-string payload", |message| message)
            .to_string(),
    }
}

/// Route one request; a panic while routing is a `500` naming it.
fn respond(route: impl FnOnce() -> Response) -> Response {
    contain(counter!("server.http.panics"), route)
        .unwrap_or_else(|panic| error_response(500, &format!("panicked: {panic}")))
}

/// Run one claimed job; a panic while running it fails the job.
fn supervise(store: &JobStore, id: usize, run: impl FnOnce()) {
    if let Err(panic) = contain(counter!("server.jobs.panics"), run) {
        counter!("server.jobs.failed").inc();
        let _ = store.update(id, |j| {
            j.state = JobState::Failed;
            j.error = Some(format!("panicked: {panic}"));
        });
    }
}

/// JSON error body.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

fn error_response(status: u16, detail: &str) -> Response {
    let body = serde_json::to_string(&ErrorBody {
        error: detail.to_string(),
    })
    .unwrap_or_else(|_| "{\"error\": \"internal\"}".to_string());
    Response::json(status, format!("{body}\n"))
}

fn json_ok<T: Serialize>(status: u16, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(status, format!("{body}\n")),
        Err(e) => error_response(500, &format!("serialization failed: {e}")),
    }
}

/// Route one request.
fn handle_request(shared: &Shared, req: &Request) -> Response {
    let path = req.path.trim_matches('/').to_string();
    let segments: Vec<&str> = if path.is_empty() {
        Vec::new()
    } else {
        path.split('/').collect()
    };
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("GET", ["metrics"]) => Response::text(200, render_metrics()),
        ("GET", ["jobs"]) => json_ok(200, &shared.store.list()),
        ("POST", ["jobs"]) => submit_job(shared, req),
        ("GET", ["jobs", id]) => match parse_id(id).and_then(|id| shared.store.get(id)) {
            Ok(job) => json_ok(200, &job),
            Err(e) => error_response(e.status(), &e.to_string()),
        },
        ("GET", ["bundles"]) => match BundleStore::list(shared.store.root()) {
            Ok(list) => json_ok(200, &list),
            Err(e) => error_response(500, &e.to_string()),
        },
        ("GET", ["jobs", id, "report"]) => {
            replayed(shared, req, id, |r| Response::text(200, r.text.as_str()))
        }
        ("GET", ["jobs", id, "report.json"]) => {
            replayed(shared, req, id, |r| Response::json(200, r.json.as_str()))
        }
        ("GET", ["jobs", id, "csv", name]) => replayed(shared, req, id, |r| match r.csv(name) {
            Some(csv) => Response::new(200, "text/csv", csv.as_bytes()),
            None => error_response(
                404,
                &format!(
                    "unknown csv {name:?} (valid: {})",
                    CachedReplay::csv_names()
                ),
            ),
        }),
        ("GET", ["jobs", id, "diff", site]) => replayed(shared, req, id, |r| site_diff(r, site)),
        ("POST", ["shutdown"]) => {
            shared.stop(false);
            counter!("server.http.shutdown_requests").inc();
            Response::text(202, "draining\n")
        }
        (_, ["healthz" | "metrics" | "jobs" | "bundles" | "shutdown", ..]) => {
            error_response(405, &format!("method {} not allowed here", req.method))
        }
        _ => error_response(404, &format!("no route for {} /{path}", req.method)),
    }
}

fn parse_id(raw: &str) -> Result<usize, ServerError> {
    raw.parse::<usize>()
        .map_err(|_| ServerError::bad_request(format!("job id {raw:?} is not an integer")))
}

fn submit_job(shared: &Shared, req: &Request) -> Response {
    let spec: JobSpec = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
    {
        Ok(spec) => spec,
        Err(e) => return error_response(400, &format!("bad job spec: {e}")),
    };
    match shared.store.submit(spec) {
        Ok(job) => {
            counter!("server.jobs.submitted").inc();
            update_queue_gauge(shared);
            json_ok(201, &job)
        }
        Err(e) => error_response(e.status(), &e.to_string()),
    }
}

/// Serve a response derived from a finished job's replay, with
/// ETag/If-None-Match handling. A job that exists but is not `Done`
/// yet is a `409 Conflict` naming its current state.
fn replayed(
    shared: &Shared,
    req: &Request,
    raw_id: &str,
    render: impl FnOnce(&CachedReplay) -> Response,
) -> Response {
    let job = match parse_id(raw_id).and_then(|id| shared.store.get(id)) {
        Ok(job) => job,
        Err(e) => return error_response(e.status(), &e.to_string()),
    };
    if job.state != JobState::Done {
        return error_response(
            409,
            &format!(
                "job {} is {} — replay queries need a done job",
                job.id,
                job.state.label()
            ),
        );
    }
    let Some(hash) = job.bundle_hash.clone() else {
        return error_response(500, &format!("done job {} has no bundle hash", job.id));
    };
    let etag = format!("\"{hash}\"");

    // Revalidation never needs the replay: the hash on the job record
    // *is* the content identity of every derived response.
    if let Some(inm) = req.header("if-none-match") {
        if inm.split(',').any(|c| c.trim() == etag || c.trim() == "*") {
            counter!("server.http.not_modified").inc();
            return Response::not_modified(&etag);
        }
    }

    let replay = match replay_job(shared, &job, &hash) {
        Ok(replay) => replay,
        Err(e) => return error_response(e.status(), &e.to_string()),
    };
    render(&replay)
        .with_header("ETag", &etag)
        .with_header("Cache-Control", "no-cache")
}

/// Fetch a job's replay through the cache (one hit or miss counted per
/// call), replaying the bundle on miss. The replay itself goes through
/// the disk-backed tree cache next to the job's bundle (`TREECACHE/`),
/// so even a cold in-process cache — a restarted server — takes
/// unchanged sites' trees from their records instead of rebuilding
/// them. The cached path is byte-identical to the cold one, so the ETag
/// derived from the bundle hash stays valid.
fn replay_job(
    shared: &Shared,
    job: &JobRecord,
    hash: &str,
) -> Result<Arc<CachedReplay>, ServerError> {
    if let Some(hit) = shared.cache.lookup(hash) {
        return Ok(hit);
    }
    let config = job.spec.config()?;
    let bundle_dir = shared.store.bundle_dir(job);
    let tree_cache = wmtree::AnalysisCache::open(
        &bundle_dir.join(wmtree::tree::cache::CACHE_DIR_NAME),
        &config,
    );
    let experiment = Experiment::new(config);
    let results = experiment
        .replay_from_bundle_cached(&bundle_dir, &tree_cache)?
        .results;
    Ok(shared
        .cache
        .insert(hash.to_string(), Arc::new(CachedReplay::render(results))))
}

/// Per-profile tree diff of one page against the baseline profile.
#[derive(Serialize)]
struct PageProfileDiff {
    profile: String,
    diff: TreeDiff,
}

/// All pages of one site, each diffed baseline-vs-profile.
#[derive(Serialize)]
struct PageDiffs {
    url: String,
    diffs: Vec<PageProfileDiff>,
}

/// The diff endpoint's body.
#[derive(Serialize)]
struct SiteDiff {
    site: String,
    baseline: String,
    pages: Vec<PageDiffs>,
}

/// `GET /jobs/{id}/diff/{site}`: every vetted page of `site`, diffing
/// the baseline (first) profile's tree against each other profile's.
fn site_diff(replay: &CachedReplay, site: &str) -> Response {
    let data = &replay.results.data;
    let baseline = data
        .profile_names
        .first()
        .cloned()
        .unwrap_or_else(|| "profile-0".to_string());
    let pages: Vec<PageDiffs> = data
        .pages
        .iter()
        .filter(|p| p.site.as_ref() == site)
        .map(|p| PageDiffs {
            url: p.url.clone(),
            diffs: p
                .trees
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, tree)| PageProfileDiff {
                    profile: data
                        .profile_names
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| format!("profile-{i}")),
                    diff: diff_trees(&p.trees[0], tree),
                })
                .collect(),
        })
        .collect();
    if pages.is_empty() {
        let known: Vec<&str> = {
            let mut sites: Vec<&str> = data.pages.iter().map(|p| p.site.as_ref()).collect();
            sites.dedup();
            sites
        };
        return error_response(
            404,
            &format!(
                "site {site:?} has no vetted pages in this job ({} sites available)",
                known.len()
            ),
        );
    }
    json_ok(
        200,
        &SiteDiff {
            site: site.to_string(),
            baseline,
            pages,
        },
    )
}

/// Render the global metric snapshot as `name value` lines (sorted —
/// the snapshot map is a BTreeMap).
fn render_metrics() -> String {
    let snapshot = wmtree_telemetry::global().snapshot();
    let mut out = String::new();
    for (name, value) in &snapshot.metrics {
        match value {
            MetricValue::Counter(n) => out.push_str(&format!("{name} {n}\n")),
            MetricValue::Gauge(v) => out.push_str(&format!("{name} {v}\n")),
            MetricValue::Histogram(h) => {
                out.push_str(&format!("{name}.count {}\n", h.count));
                out.push_str(&format!("{name}.sum {}\n", h.sum));
            }
        }
    }
    out
}

fn update_queue_gauge(shared: &Shared) {
    let queued = shared
        .store
        .list()
        .iter()
        .filter(|j| matches!(j.state, JobState::Queued | JobState::Interrupted))
        .count();
    gauge!("server.jobs.queued").set(queued as i64);
}

/// Claim-and-run loop of one job worker: blocks on the store's condvar
/// while the queue is empty, returns once the server stops.
fn job_worker(shared: &Shared) {
    loop {
        match shared.store.wait_claim(|| shared.shutdown.stopping()) {
            Ok(Some(job)) => {
                update_queue_gauge(shared);
                supervise(&shared.store, job.id, || run_job(shared, job));
                update_queue_gauge(shared);
            }
            Ok(None) => return,
            Err(_) => thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// Crawl one claimed job in resumable batches until done, failed,
/// drained, or killed.
fn run_job(shared: &Shared, job: JobRecord) {
    let fail = |detail: String| {
        counter!("server.jobs.failed").inc();
        let _ = shared.store.update(job.id, |j| {
            j.state = JobState::Failed;
            j.error = Some(detail);
        });
    };
    let config = match job.spec.config() {
        Ok(config) => config,
        Err(e) => return fail(e.to_string()),
    };
    let experiment = Experiment::new(config);
    let sites_total = experiment.universe().sites().len();
    if shared
        .store
        .update(job.id, |j| j.sites_total = sites_total)
        .is_err()
    {
        return;
    }
    let dir = shared.store.bundle_dir(&job);
    loop {
        // A kill abandons the job *without* touching JOBS.json: the
        // store must look exactly as it would after a real crash.
        if shared.shutdown.killed() {
            return;
        }
        // Batches only crawl; the job's first replay analyses it once.
        match experiment.crawl_window_to_bundle(0, sites_total, &dir, Some(shared.batch_sites)) {
            Ok(ResumableOutcome::Complete { .. }) => {
                let hash = match bundle_content_hash(&dir) {
                    Ok(hash) => hash,
                    Err(e) => return fail(format!("hashing finished bundle: {e}")),
                };
                counter!("server.jobs.completed").inc();
                let _ = shared.store.update(job.id, |j| {
                    j.state = JobState::Done;
                    j.sites_done = j.sites_total;
                    j.bundle_hash = Some(hash);
                });
                return;
            }
            Ok(ResumableOutcome::Partial {
                sites_done,
                sites_total,
                ..
            }) => {
                counter!("server.jobs.batches").inc();
                // Killed mid-batch: abandon before persisting anything
                // (kill also raises the drain flag — checking drain
                // first would wrongly record a clean interrupt).
                if shared.shutdown.killed() {
                    return;
                }
                let drained = shared.shutdown.draining();
                let _ = shared.store.update(job.id, |j| {
                    j.sites_done = sites_done;
                    j.sites_total = sites_total;
                    if drained {
                        j.state = JobState::Interrupted;
                    }
                });
                if drained {
                    counter!("server.jobs.interrupted").inc();
                    return;
                }
            }
            Err(e) => return fail(format!("crawl batch failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobSpec;

    fn count(name: &str) -> u64 {
        match wmtree_telemetry::global().snapshot().metrics.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    #[test]
    fn a_panic_while_routing_answers_500_naming_it() {
        let before = count("server.http.panics");
        let resp = respond(|| panic!("routing blew up"));
        assert_eq!(resp.status, 500);
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(body, "{\"error\":\"panicked: routing blew up\"}\n");
        let resp = respond(|| panic!("request {} blew up", 7));
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("panicked: request 7 blew up"));
        assert_eq!(count("server.http.panics"), before + 2);
        // The thread that contained them keeps routing.
        assert_eq!(respond(|| Response::text(200, "ok\n")).status, 200);
        assert_eq!(count("server.http.panics"), before + 2);
    }

    #[test]
    fn a_panic_while_running_a_job_fails_it() {
        let root = std::env::temp_dir().join("wmtree-server-supervise");
        let _ = std::fs::remove_dir_all(&root);
        let (store, _) = JobStore::open(&root).unwrap();
        let spec = JobSpec {
            scale: "tiny".to_string(),
            seed: None,
            workers: Some(1),
        };
        store.submit(spec.clone()).unwrap();
        store.submit(spec).unwrap();
        let before = (count("server.jobs.panics"), count("server.jobs.failed"));

        let job = store.claim_next().unwrap().unwrap();
        supervise(&store, job.id, || panic!("crawl blew up"));
        let failed = store.get(job.id).unwrap();
        assert_eq!(failed.state, JobState::Failed);
        assert_eq!(failed.error.as_deref(), Some("panicked: crawl blew up"));
        assert_eq!(
            (count("server.jobs.panics"), count("server.jobs.failed")),
            (before.0 + 1, before.1 + 1)
        );

        // The next job is claimed and runs as usual; one that returns
        // keeps whatever state it left itself in.
        let job = store.claim_next().unwrap().unwrap();
        assert_eq!(job.id, 1);
        supervise(&store, job.id, || {});
        assert_eq!(store.get(job.id).unwrap().state, JobState::Running);
        assert_eq!(count("server.jobs.panics"), before.0 + 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unspecified_addresses_are_reached_over_loopback() {
        let any: SocketAddr = "0.0.0.0:4242".parse().unwrap();
        assert_eq!(reachable(any), "127.0.0.1:4242".parse().unwrap());
        let any6: SocketAddr = "[::]:4242".parse().unwrap();
        assert_eq!(reachable(any6), "[::1]:4242".parse().unwrap());
        let bound: SocketAddr = "192.0.2.7:80".parse().unwrap();
        assert_eq!(reachable(bound), bound);
    }
}
