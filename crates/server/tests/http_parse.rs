//! `Request::read_from` never panics: arbitrary bytes, mutated valid
//! requests, bad `Content-Length` values and inputs at and past the
//! line, header and body caps all give `Ok` or `Err`, and the server
//! answers an `Err` with a 400.

use proptest::prelude::*;
use std::io::BufReader;
use wmtree_server::http::{HttpParseError, MAX_BODY, MAX_HEADERS, MAX_LINE};
use wmtree_server::Request;

fn parse(bytes: &[u8]) -> Result<Request, HttpParseError> {
    let request = Request::read_from(&mut BufReader::new(bytes));
    if let Ok(req) = &request {
        assert!(!req.method.is_empty());
        assert!(req.headers.len() <= MAX_HEADERS);
        assert!(req.body.len() <= MAX_BODY);
    }
    request
}

/// A well-formed request: request line, headers, then a body with its
/// `Content-Length`.
fn request(
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
    eol: &str,
) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1{eol}");
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}{eol}"));
    }
    out.push_str(&format!("Content-Length: {}{eol}{eol}", body.len()));
    let mut out = out.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Apply mutation `kind` at `at` (taken modulo the head, the bytes
/// before the body) with `byte`.
fn mutate(mut bytes: Vec<u8>, head: usize, kind: u8, at: usize, byte: u8) -> Vec<u8> {
    let at = at % head.max(1);
    match kind % 6 {
        0 => bytes[at] ^= byte | 1,
        1 => {
            bytes.remove(at);
        }
        2 => bytes.insert(at, byte),
        3 => bytes.truncate(at),
        4 => {
            // Duplicate the line holding `at`.
            let start = bytes[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let end = bytes[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| at + i + 1);
            let line = bytes[start..end].to_vec();
            bytes.splice(start..start, line);
        }
        _ => bytes[at] = [b' ', b':', b'\r', b'\n', 0xff, b'?'][byte as usize % 6],
    }
    bytes
}

fn header() -> impl Strategy<Value = (String, String)> {
    ("[A-Za-z-]{1,12}", "[ -~]{0,24}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = parse(&bytes);
    }

    #[test]
    fn mutated_requests_never_panic(
        method in prop::sample::select(vec!["GET", "POST", "PUT", "DELETE"]),
        path in "/[a-z0-9/?=&.%-]{0,40}",
        headers in prop::collection::vec(header(), 0..6),
        body in prop::collection::vec(any::<u8>(), 0..64),
        crlf in any::<bool>(),
        mutation in (0u8..6, 0usize..10_000, any::<u8>()),
    ) {
        let eol = if crlf { "\r\n" } else { "\n" };
        let valid = request(method, &path, &headers, &body, eol);
        let req = parse(&valid).expect("the unmutated request parses");
        prop_assert_eq!(req.method.as_str(), method);
        prop_assert_eq!(&req.body, &body);
        let (kind, at, byte) = mutation;
        let head = valid.len() - body.len();
        let _ = parse(&mutate(valid, head, kind, at, byte));
    }

    #[test]
    fn bad_content_lengths_are_errors(
        kind in 0u8..4,
        word in "[a-z+.-]{1,8}",
        n in 1usize..100_000,
        sent in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let declared = match kind {
            0 => word,
            1 => format!("-{n}"),
            2 => format!("{}", MAX_BODY + n),
            _ => format!("{}", sent.len() + n),
        };
        let mut bytes = format!("POST /jobs HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
        bytes.extend_from_slice(&sent);
        prop_assert!(parse(&bytes).is_err(), "Content-Length {declared} with {} bytes sent", sent.len());
    }

    #[test]
    fn lines_and_header_counts_at_and_past_the_caps(
        excess in 0usize..3,
        crlf in any::<bool>(),
        which in 0u8..3,
    ) {
        let eol = if crlf { "\r\n" } else { "\n" };
        let (bytes, ok) = match which {
            // A request line of exactly `MAX_LINE + excess` bytes.
            0 => {
                let path = "a".repeat(MAX_LINE + excess - "GET / HTTP/1.1".len());
                (format!("GET /{path} HTTP/1.1{eol}{eol}"), excess == 0)
            }
            // A header line of exactly `MAX_LINE + excess` bytes.
            1 => {
                let value = "v".repeat(MAX_LINE + excess - "x: ".len());
                (format!("GET / HTTP/1.1{eol}x: {value}{eol}{eol}"), excess == 0)
            }
            // `MAX_HEADERS + excess` header lines.
            _ => {
                let headers: String = (0..MAX_HEADERS + excess).map(|i| format!("h{i}: v{eol}")).collect();
                (format!("GET / HTTP/1.1{eol}{headers}{eol}"), excess == 0)
            }
        };
        prop_assert_eq!(parse(bytes.as_bytes()).is_ok(), ok, "case {} with {} excess", which, excess);
    }
}
