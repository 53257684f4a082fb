//! A hostile job spec is a `400 Bad Request`, never a dead server: the
//! JSON reader caps nesting, so a body of nothing but `[` cannot
//! overflow an HTTP worker's stack.

mod common;

use common::{get, request, scratch};
use wmtree_server::{JobSpec, Server, ServerConfig};

#[test]
fn deeply_nested_body_is_a_bad_request_and_the_server_lives() {
    let deep = "[".repeat(100_000);
    assert!(serde_json::from_str::<serde_json::Value>(&deep).is_err());
    assert!(serde_json::from_str::<JobSpec>(&deep).is_err());

    let handle = Server::start(ServerConfig::new(scratch("nesting"))).expect("start server");
    let addr = handle.addr();
    let body = "[".repeat(200_000);
    let resp = request(addr, "POST", "/jobs", &[], body.as_bytes());
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("bad job spec"), "{}", resp.text());
    let health = get(addr, "/healthz");
    assert_eq!((health.status, health.text().as_str()), (200, "ok\n"));
    handle.shutdown();
}
