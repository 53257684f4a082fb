//! Every blocked server thread wakes for the event it waits on: a stop
//! releases the accept thread and the idle job workers with no client
//! traffic, a `POST /shutdown` does so on a server bound to an
//! unspecified address, and a submit wakes an idle job worker.
//!
//! Each stop runs on a scoped thread while the test waits for it on a
//! channel, so a stop that never returns fails the test binary after
//! 60 s instead of hanging it. The bound guards against a hang; it
//! asserts no latency.

mod common;

use common::{get, request, scratch};
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::mpsc;
use std::time::Duration;
use wmtree_server::{JobRecord, JobState, Server, ServerConfig};

/// How long a stop may take before the test calls it hung.
const HANG: Duration = Duration::from_secs(60);

/// Run `stop` on a scoped thread and wait for it to return. A panic in
/// `stop` fails the test as usual. A hang exits the process: panicking
/// here would not end the test, because the scope still joins the hung
/// thread.
fn returns(what: &str, stop: impl FnOnce() + Send) {
    let (done, finished) = mpsc::channel();
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            stop();
            let _ = done.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(HANG) {
            // Straight to stderr: the harness would swallow a captured
            // `eprintln!` when the process exits.
            let _ = writeln!(std::io::stderr(), "{what} did not return within {HANG:?}");
            std::process::exit(1);
        }
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    });
}

fn config(name: &str) -> ServerConfig {
    let mut config = ServerConfig::new(scratch(name));
    config.job_workers = 2;
    config
}

#[test]
fn idle_servers_stop_without_client_traffic() {
    let handle = Server::start(config("wake-shutdown")).expect("start server");
    returns("shutdown() of an idle server", || handle.shutdown());

    let handle = Server::start(config("wake-kill")).expect("start server");
    returns("kill() of an idle server", || handle.kill());
}

#[test]
fn a_server_on_an_unspecified_address_drains_on_request() {
    let mut config = config("wake-any-addr");
    config.addr = "0.0.0.0:0".to_string();
    let handle = Server::start(config).expect("start server");
    assert!(handle.addr().ip().is_unspecified(), "{}", handle.addr());
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, handle.addr().port()));

    assert_eq!(get(addr, "/healthz").text(), "ok\n");
    let resp = request(addr, "POST", "/shutdown", &[], b"");
    assert_eq!(resp.status, 202, "{}", resp.text());
    returns("wait() after POST /shutdown", || handle.wait());
}

#[test]
fn a_job_submitted_to_an_idle_worker_reaches_done() {
    let handle = Server::start(config("wake-submit")).expect("start server");
    let addr = handle.addr();
    // Nothing is queued, so both job workers are idle by now.
    assert_eq!(get(addr, "/jobs").text(), "[]\n");

    let resp = request(addr, "POST", "/jobs", &[], b"{\"scale\": \"tiny\"}");
    assert_eq!(resp.status, 201, "{}", resp.text());
    // Bounded by iterations, not a clock: 4800 × 25 ms.
    let mut done = None;
    for _ in 0..4800 {
        let job: JobRecord =
            serde_json::from_str(&get(addr, "/jobs/0").text()).expect("job record json");
        assert_ne!(job.state, JobState::Failed, "{:?}", job.error);
        if job.state == JobState::Done {
            done = Some(job);
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let job = done.expect("the submitted job reaches Done");
    assert_eq!(job.sites_done, job.sites_total);
    assert!(job.bundle_hash.is_some());

    returns("shutdown() after the job", || handle.shutdown());
}
