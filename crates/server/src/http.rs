//! A minimal HTTP/1.1 subset over blocking streams.
//!
//! Just enough protocol for the measurement service: one request per
//! connection (`Connection: close`), `Content-Length` bodies only (no
//! chunked encoding), bounded line/header/body sizes so a misbehaving
//! client cannot balloon memory. Everything is plain `std::io` — the
//! server keeps the workspace's no-external-dependencies rule.

use std::io::{BufRead, Write};

/// Longest accepted request line or header line, bytes.
pub const MAX_LINE: usize = 8 * 1024;

/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// Largest accepted request body, bytes.
pub const MAX_BODY: usize = 256 * 1024;

/// A parse failure, mapped to a 400 by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpParseError {
    /// What was wrong.
    pub detail: String,
}

impl std::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed request: {}", self.detail)
    }
}

impl std::error::Error for HttpParseError {}

fn malformed(detail: impl Into<String>) -> HttpParseError {
    HttpParseError {
        detail: detail.into(),
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path component, without the query string.
    pub path: String,
    /// Query string after `?`, if any (undecoded).
    pub query: Option<String>,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Read one CRLF- (or LF-) terminated line, enforcing [`MAX_LINE`] on
/// the line without its terminator.
fn read_line(reader: &mut impl BufRead) -> Result<String, HttpParseError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                // One byte of slack for the `\r` of a CRLF terminator.
                if line.len() > MAX_LINE + 1 {
                    return Err(malformed("line too long"));
                }
            }
            Err(e) => return Err(malformed(format!("read failed: {e}"))),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    if line.len() > MAX_LINE {
        return Err(malformed("line too long"));
    }
    String::from_utf8(line).map_err(|_| malformed("line is not utf-8"))
}

impl Request {
    /// Parse one request from a blocking reader.
    pub fn read_from(reader: &mut impl BufRead) -> Result<Request, HttpParseError> {
        let request_line = read_line(reader)?;
        let mut parts = request_line.split(' ');
        let method = parts.next().unwrap_or_default().to_string();
        let target = parts.next().ok_or_else(|| malformed("missing path"))?;
        let version = parts.next().ok_or_else(|| malformed("missing version"))?;
        if method.is_empty() || !version.starts_with("HTTP/1.") {
            return Err(malformed(format!("bad request line {request_line:?}")));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.to_string(), None),
        };

        let mut headers = Vec::new();
        loop {
            let line = read_line(reader)?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(malformed("too many headers"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| malformed(format!("bad header line {line:?}")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let content_length = headers
            .iter()
            .find(|(name, _)| name == "content-length")
            .map(|(_, value)| {
                value
                    .parse::<usize>()
                    .map_err(|_| malformed(format!("bad content-length {value:?}")))
            })
            .transpose()?
            .unwrap_or(0);
        if content_length > MAX_BODY {
            return Err(malformed(format!(
                "body of {content_length} bytes exceeds the {MAX_BODY}-byte cap"
            )));
        }
        let mut body = vec![0u8; content_length];
        if content_length > 0 {
            reader
                .read_exact(&mut body)
                .map_err(|e| malformed(format!("short body: {e}")))?;
        }

        Ok(Request {
            method,
            path,
            query,
            headers,
            body,
        })
    }

    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response under assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are added at
    /// write time).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a content type and body.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), content_type.to_string())],
            body: body.into(),
        }
    }

    /// Plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(
            status,
            "text/plain; charset=utf-8",
            body.into().into_bytes(),
        )
    }

    /// JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "application/json", body.into().into_bytes())
    }

    /// An empty `304 Not Modified` carrying the (already-quoted) ETag.
    pub fn not_modified(etag: &str) -> Response {
        Response {
            status: 304,
            headers: vec![("ETag".to_string(), etag.to_string())],
            body: Vec::new(),
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize status line, headers, and body to a writer.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        write!(w, "Content-Length: {}\r\n", self.body.len())?;
        write!(w, "Connection: close\r\n\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpParseError> {
        Request::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_line_headers_and_body() {
        let req = parse("POST /jobs?wait=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query.as_deref(), Some("wait=1"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        assert!(parse("not http at all\r\n\r\n").is_err());
        assert!(parse("GET\r\n\r\n").is_err());
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(&huge).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn response_wire_format_is_exact() {
        let mut out = Vec::new();
        Response::text(200, "ok\n")
            .with_header("ETag", "\"abcd\"")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("ETag: \"abcd\"\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok\n"), "{text}");
    }
}
