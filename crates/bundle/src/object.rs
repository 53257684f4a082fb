//! The object payload of format v3: one stored visit as one
//! self-contained positional JSON array,
//!
//! ```text
//! [page, success, timed_out, duration_ms, cookies, strings, urls, frames, requests]
//! ```
//!
//! - The **header** comes first, all literal: the page URL as
//!   `[scheme, host, path, query?, fragment?, port?]`, the two outcome
//!   flags as `0`/`1`, the duration, and the jar cookies as
//!   `[name, value, domain, host_only, path, secure, http_only,
//!   same_site, max_age, expires]`.
//! - The object's own **table** follows. `strings` holds each scheme,
//!   host, call-stack function name and `Set-Cookie` line once; `urls`
//!   holds each distinct URL once as `[scheme, host, path, query?,
//!   fragment?, port?]`, with the scheme and host as `strings` indices.
//!   A URL's trailing absent components are left out, and an absent
//!   one before a present one is `null`.
//! - The **rows** come last: `frames` as `[frame_id, parent, document]`,
//!   and `requests` as `[id, url, type, frame_id, call_stack, redirect,
//!   trigger, trigger_url, started_ms, completed_ms, status,
//!   set_cookies, is_frame_navigation]`. `url` and `redirect` index
//!   `urls`, a call-stack entry is `[url, function]` with the function
//!   a `strings` index, and `set_cookies` are `strings` indices. A
//!   URL-valued string — a call-stack, trigger or frame-document URL —
//!   is the index of the `urls` entry it spells exactly (`Url::as_str`),
//!   or a literal string when no entry does.
//!
//! The encoder interns in one fixed walk of the visit (requests in
//! order: URL, call-stack functions, redirect, cookie lines), so the
//! same visit always gives the same bytes. Nothing refers outside the
//! object: content addressing, dedup, resume and the parallel decoder
//! need no state shared between objects.
//!
//! Decoding goes only as deep as its reader needs. [`decode_header`]
//! stops after the header and leaves `requests` and `frames` empty;
//! [`decode`] reads everything, checks every index, tag and row length,
//! and builds each URL from its stored components
//! ([`Url::from_parts`]) instead of parsing its serialization. Strings
//! without escapes are borrowed from the payload until a record takes
//! its own copy. Either way the error names the defect and its byte
//! offset in the payload, and no input panics.

use serde::{Error, Reader, SeqReader, SeqWriter, Writer};
use std::borrow::Cow;
use std::collections::HashMap;
use wmtree_browser::{FrameRecord, RequestRecord, StackEntry, TriggerSource, VisitResult};
use wmtree_net::cookie::{Cookie, SameSite};
use wmtree_net::{ResourceType, Status};
use wmtree_url::Url;

/// How deep the bundle loader decodes a stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Depth {
    /// Only the content address is checked; nothing is parsed, and a
    /// visit at this depth is not handed out.
    Address,
    /// The header: page URL, outcome flags, duration and jar cookies,
    /// with `requests` and `frames` left empty ([`decode_header`]).
    Header,
    /// The whole visit ([`decode`]).
    Full,
}

/// Elements of an object array.
const OBJECT_LEN: usize = 9;
/// Elements of a request row.
const REQUEST_LEN: usize = 13;
/// Elements of a frame row.
const FRAME_LEN: usize = 3;
/// Elements of a cookie row.
const COOKIE_LEN: usize = 10;
/// Elements of a call-stack entry.
const STACK_LEN: usize = 2;

/// Resource types by their stored tag.
const RESOURCE_TYPES: [ResourceType; 13] = [
    ResourceType::MainFrame,
    ResourceType::SubFrame,
    ResourceType::Script,
    ResourceType::Stylesheet,
    ResourceType::Image,
    ResourceType::ImageSet,
    ResourceType::Font,
    ResourceType::Media,
    ResourceType::Xhr,
    ResourceType::WebSocket,
    ResourceType::Beacon,
    ResourceType::CspReport,
    ResourceType::Other,
];

/// `SameSite` values by their stored tag.
const SAME_SITE: [SameSite; 3] = [SameSite::Strict, SameSite::Lax, SameSite::None];

/// Trigger tags: `Parser`, `Script`, `Css`, `Redirect`,
/// `WebSocketPush`, `Navigation`. The four in between carry a URL.
const TRIGGERS: usize = 6;

// ------------------------------------------------------------ encoding

/// The object's `strings`: each interned once, in first-use order.
#[derive(Default)]
struct Strings<'v> {
    list: Vec<&'v str>,
    ids: HashMap<&'v str, usize>,
}

impl<'v> Strings<'v> {
    /// Intern one string.
    fn intern(&mut self, s: &'v str) -> usize {
        let list = &mut self.list;
        *self.ids.entry(s).or_insert_with(|| {
            list.push(s);
            list.len() - 1
        })
    }

    /// The index of an interned string.
    fn id(&self, s: &str) -> usize {
        self.ids.get(s).copied().unwrap_or_default()
    }
}

/// `url`, if a reader can rebuild it from its components.
fn checked(url: &Url) -> Result<&Url, String> {
    url.check_parts()
        .map(|()| url)
        .map_err(|e| format!("URL `{url}` cannot be stored: {e}"))
}

/// Write a `0`/`1` flag.
fn write_flag(w: &mut Writer, b: bool) {
    w.u64(u64::from(b));
}

/// Write a URL's components after its scheme and host: the path, then
/// the trailing query, fragment and port that are present.
fn url_tail(row: &mut SeqWriter, url: &Url) {
    row.elem(url.path());
    let len = if url.port().is_some() {
        3
    } else if url.fragment().is_some() {
        2
    } else {
        usize::from(url.query().is_some())
    };
    if len >= 1 {
        row.elem(&url.query());
    }
    if len >= 2 {
        row.elem(&url.fragment());
    }
    if len >= 3 {
        row.elem(&url.port());
    }
}

/// Write a URL-valued string: the `urls` entry it spells, or itself.
fn text(w: &mut Writer, spelled: &HashMap<&str, usize>, s: &str) {
    match spelled.get(s) {
        Some(&id) => w.u64(id as u64),
        None => w.str(s),
    }
}

/// Write a jar cookie row.
fn cookie_row(w: &mut Writer, c: &Cookie) {
    let same_site = c
        .same_site
        .map(|s| SAME_SITE.iter().position(|&t| t == s).unwrap_or_default());
    let mut row = w.seq();
    row.elem(&c.name);
    row.elem(&c.value);
    row.elem(&c.domain);
    write_flag(row.start_elem(), c.host_only);
    row.elem(&c.path);
    write_flag(row.start_elem(), c.secure);
    write_flag(row.start_elem(), c.http_only);
    row.elem(&same_site);
    row.elem(&c.max_age);
    row.elem(&c.expires);
    row.end();
}

/// Encode one visit as its v3 object payload. The only error is a URL
/// whose components no reader could rebuild (see [`Url::from_parts`]);
/// no URL that [`Url::parse`] produced has that defect.
pub fn encode(visit: &VisitResult) -> Result<String, String> {
    checked(&visit.page_url)?;
    // Each request's URL is an entry of its own.
    let n = visit.requests.len();
    let mut spelled: HashMap<&str, usize> = HashMap::with_capacity(n);
    for (id, r) in visit.requests.iter().enumerate() {
        spelled.entry(checked(&r.url)?.as_str()).or_insert(id);
    }
    // The `urls` entries: each request's URL, in request order, then
    // each redirect origin no request URL equals.
    let mut urls: Vec<&Url> = visit.requests.iter().map(|r| &r.url).collect();
    let mut redirects = Vec::with_capacity(n);
    for r in &visit.requests {
        let Some(origin) = &r.redirect_from else {
            redirects.push(None);
            continue;
        };
        let id = match spelled.get(origin.as_str()) {
            Some(&id) if urls[id] == origin => id,
            _ => {
                urls.push(checked(origin)?);
                urls.len() - 1
            }
        };
        redirects.push(Some(id));
    }
    let mut strings = Strings::default();
    let origins: Vec<(usize, usize)> = (urls.iter())
        .map(|url| (strings.intern(url.scheme()), strings.intern(url.host())))
        .collect();
    for r in &visit.requests {
        for entry in &r.call_stack {
            strings.intern(&entry.function);
        }
        for line in &r.set_cookies {
            strings.intern(line);
        }
    }
    let mut out = Writer::compact();
    let mut object = out.seq();
    let page = &visit.page_url;
    let mut row = object.start_elem().seq();
    row.elem(page.scheme());
    row.elem(page.host());
    url_tail(&mut row, page);
    row.end();
    write_flag(object.start_elem(), visit.success);
    write_flag(object.start_elem(), visit.timed_out);
    object.elem(&visit.duration_ms);
    let mut rows = object.start_elem().seq();
    for cookie in &visit.cookies {
        cookie_row(rows.start_elem(), cookie);
    }
    rows.end();
    object.elem(&strings.list);
    let mut rows = object.start_elem().seq();
    for (origin, url) in origins.iter().zip(&urls) {
        let mut row = rows.start_elem().seq();
        row.elem(&origin.0);
        row.elem(&origin.1);
        url_tail(&mut row, url);
        row.end();
    }
    rows.end();
    let mut rows = object.start_elem().seq();
    for f in &visit.frames {
        let mut row = rows.start_elem().seq();
        row.elem(&f.frame_id);
        row.elem(&f.parent_frame_id);
        text(row.start_elem(), &spelled, &f.document_url);
        row.end();
    }
    rows.end();
    let mut rows = object.start_elem().seq();
    for (i, (r, redirect)) in visit.requests.iter().zip(redirects).enumerate() {
        let kind = RESOURCE_TYPES
            .iter()
            .position(|&t| t == r.resource_type)
            .unwrap_or_default();
        let (trigger, trigger_url) = match &r.trigger {
            TriggerSource::Parser => (0, None),
            TriggerSource::Script(url) => (1, Some(url)),
            TriggerSource::Css(url) => (2, Some(url)),
            TriggerSource::Redirect(url) => (3, Some(url)),
            TriggerSource::WebSocketPush(url) => (4, Some(url)),
            TriggerSource::Navigation => (5, None),
        };
        let mut row = rows.start_elem().seq();
        row.elem(&r.id);
        row.elem(&i);
        row.elem(&kind);
        row.elem(&r.frame_id);
        let mut stack = row.start_elem().seq();
        for entry in &r.call_stack {
            let mut pair = stack.start_elem().seq();
            text(pair.start_elem(), &spelled, &entry.url);
            pair.elem(&strings.id(&entry.function));
            pair.end();
        }
        stack.end();
        row.elem(&redirect);
        row.elem(&trigger);
        match trigger_url {
            Some(url) => text(row.start_elem(), &spelled, url),
            None => row.start_elem().null(),
        }
        row.elem(&r.started_ms);
        row.elem(&r.completed_ms);
        row.elem(&r.status.0);
        let mut lines = row.start_elem().seq();
        for line in &r.set_cookies {
            lines.elem(&strings.id(line));
        }
        lines.end();
        write_flag(row.start_elem(), r.is_frame_navigation);
        row.end();
    }
    rows.end();
    object.end();
    Ok(out.into_string())
}

// ------------------------------------------------------------ decoding

/// Decode the header of a v3 object payload: the visit with `requests`
/// and `frames` left empty. The rest of the payload is not read.
pub fn decode_header(payload: &str) -> Result<VisitResult, String> {
    read(payload, false).map_err(|e| format!("unparseable visit payload: {e}"))
}

/// Decode a whole v3 object payload, checking every table index, tag
/// and row length.
pub fn decode(payload: &str) -> Result<VisitResult, String> {
    read(payload, true).map_err(|e| format!("unparseable visit payload: {e}"))
}

/// The reader at the next element of a row of `len` elements.
fn next<'s, 'a>(row: &'s mut SeqReader<'_, 'a>, len: usize) -> Result<&'s mut Reader<'a>, Error> {
    if row.has_next()? {
        Ok(row.reader())
    } else {
        Err(row.reader().error(format!("expected {len}-element row")))
    }
}

/// Close a row of `len` elements after its last one.
fn close(mut row: SeqReader<'_, '_>, len: usize) -> Result<(), Error> {
    if row.has_next()? {
        return Err(row.reader().error(format!("expected {len}-element row")));
    }
    Ok(())
}

/// Read a `0`/`1` flag.
fn flag(r: &mut Reader) -> Result<bool, Error> {
    match r.int::<u8>("flag")? {
        0 => Ok(false),
        1 => Ok(true),
        n => Err(r.error(format!("flag {n} is neither 0 nor 1"))),
    }
}

/// Read an index below `len` into the table `what`.
fn index(r: &mut Reader, len: usize, what: &str) -> Result<usize, Error> {
    let i = r.int::<usize>("index")?;
    if i >= len {
        return Err(r.error(format!("{what} index {i} out of range (table holds {len})")));
    }
    Ok(i)
}

/// Read `null` or a value.
fn nullable<'a, T>(
    r: &mut Reader<'a>,
    value: impl FnOnce(&mut Reader<'a>) -> Result<T, Error>,
) -> Result<Option<T>, Error> {
    if r.take_null()? {
        Ok(None)
    } else {
        value(r).map(Some)
    }
}

/// Read a sequence of rows, one `row` call per element.
fn rows<'a, T>(
    r: &mut Reader<'a>,
    mut row: impl FnMut(&mut Reader<'a>) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let mut seq = r.seq()?;
    let mut out = Vec::new();
    while seq.has_next()? {
        out.push(row(seq.reader())?);
    }
    Ok(out)
}

/// A URL's stored components, borrowed from the payload where they can
/// be. The scheme and host are `strings` indices in the table and
/// literal in the header.
struct Parts<'a> {
    scheme: Cow<'a, str>,
    host: Cow<'a, str>,
    path: Cow<'a, str>,
    query: Option<Cow<'a, str>>,
    fragment: Option<Cow<'a, str>>,
    port: Option<u16>,
}

impl Parts<'_> {
    /// The URL, checked as [`Url::from_parts`] does.
    fn url(&self, r: &Reader) -> Result<Url, Error> {
        Url::from_parts(
            &self.scheme,
            &self.host,
            self.port,
            &self.path,
            self.query.as_deref(),
            self.fragment.as_deref(),
        )
        .map_err(|e| {
            let (scheme, host, path) = (&self.scheme, &self.host, &self.path);
            r.error(format!("URL `{scheme}://{host}{path}` is malformed: {e}"))
        })
    }
}

/// Read a URL row: `scheme` and `host` first, then the path and the
/// trailing components that are present.
fn url_row<'a>(
    r: &mut Reader<'a>,
    mut part: impl FnMut(&mut Reader<'a>) -> Result<Cow<'a, str>, Error>,
) -> Result<Parts<'a>, Error> {
    let mut row = r.seq()?;
    let scheme = part(next(&mut row, 3)?)?;
    let host = part(next(&mut row, 3)?)?;
    let path = next(&mut row, 3)?.str()?;
    let mut parts = Parts {
        scheme,
        host,
        path,
        query: None,
        fragment: None,
        port: None,
    };
    if row.has_next()? {
        parts.query = nullable(row.reader(), Reader::str)?;
        if row.has_next()? {
            parts.fragment = nullable(row.reader(), Reader::str)?;
            if row.has_next()? {
                parts.port = nullable(row.reader(), |r| r.int("u16"))?;
                close(row, 6)?;
            }
        }
    }
    Ok(parts)
}

/// Read a jar cookie row.
fn cookie(r: &mut Reader) -> Result<Cookie, Error> {
    let mut row = r.seq()?;
    let owned = |r: &mut Reader| r.str().map(Cow::into_owned);
    let cookie = Cookie {
        name: owned(next(&mut row, COOKIE_LEN)?)?,
        value: owned(next(&mut row, COOKIE_LEN)?)?,
        domain: owned(next(&mut row, COOKIE_LEN)?)?,
        host_only: flag(next(&mut row, COOKIE_LEN)?)?,
        path: owned(next(&mut row, COOKIE_LEN)?)?,
        secure: flag(next(&mut row, COOKIE_LEN)?)?,
        http_only: flag(next(&mut row, COOKIE_LEN)?)?,
        same_site: nullable(next(&mut row, COOKIE_LEN)?, |r| {
            Ok(SAME_SITE[index(r, SAME_SITE.len(), "SameSite")?])
        })?,
        max_age: nullable(next(&mut row, COOKIE_LEN)?, |r| r.int("i64"))?,
        expires: nullable(next(&mut row, COOKIE_LEN)?, owned)?,
    };
    close(row, COOKIE_LEN)?;
    Ok(cookie)
}

/// The object's table, as the rows refer to it.
struct Tables<'a> {
    strings: Vec<Cow<'a, str>>,
    urls: Vec<Parts<'a>>,
    /// `Url::as_str` of each `urls` entry, once some row asked for it.
    spelled: Vec<Option<String>>,
}

impl<'a> Tables<'a> {
    /// Read the `strings` and `urls` elements.
    fn read(object: &mut SeqReader<'_, 'a>) -> Result<Tables<'a>, Error> {
        let strings = rows(next(object, OBJECT_LEN)?, Reader::str)?;
        let urls = rows(next(object, OBJECT_LEN)?, |r| {
            url_row(r, |r| {
                let i = index(r, strings.len(), "string")?;
                Ok(strings[i].clone())
            })
        })?;
        let spelled = vec![None; urls.len()];
        Ok(Tables {
            strings,
            urls,
            spelled,
        })
    }

    /// Read a `urls` index and build that URL.
    fn url(&self, r: &mut Reader) -> Result<Url, Error> {
        let i = index(r, self.urls.len(), "URL")?;
        self.urls[i].url(r)
    }

    /// Read a `strings` index and copy that string.
    fn string(&self, r: &mut Reader) -> Result<String, Error> {
        let i = index(r, self.strings.len(), "string")?;
        Ok(self.strings[i].to_string())
    }

    /// Read a URL-valued string: a `urls` index or a literal.
    fn text(&mut self, r: &mut Reader) -> Result<String, Error> {
        if r.peek() == Some(b'"') {
            return r.str().map(Cow::into_owned);
        }
        let i = index(r, self.urls.len(), "URL")?;
        let spelled = match &mut self.spelled[i] {
            Some(spelled) => spelled,
            slot => slot.insert(self.urls[i].url(r)?.to_string()),
        };
        Ok(spelled.clone())
    }
}

/// Read a frame row.
fn frame(r: &mut Reader, tables: &mut Tables) -> Result<FrameRecord, Error> {
    let mut row = r.seq()?;
    let frame = FrameRecord {
        frame_id: next(&mut row, FRAME_LEN)?.int("u32")?,
        parent_frame_id: nullable(next(&mut row, FRAME_LEN)?, |r| r.int("u32"))?,
        document_url: tables.text(next(&mut row, FRAME_LEN)?)?,
    };
    close(row, FRAME_LEN)?;
    Ok(frame)
}

/// Read a request row.
fn request(r: &mut Reader, tables: &mut Tables) -> Result<RequestRecord, Error> {
    let mut row = r.seq()?;
    let id = next(&mut row, REQUEST_LEN)?.int("u64")?;
    let url = tables.url(next(&mut row, REQUEST_LEN)?)?;
    let resource_type = {
        let r = next(&mut row, REQUEST_LEN)?;
        RESOURCE_TYPES[index(r, RESOURCE_TYPES.len(), "resource type")?]
    };
    let frame_id = next(&mut row, REQUEST_LEN)?.int("u32")?;
    let call_stack = rows(next(&mut row, REQUEST_LEN)?, |r| {
        let mut entry = r.seq()?;
        let stack = StackEntry {
            url: tables.text(next(&mut entry, STACK_LEN)?)?,
            function: tables.string(next(&mut entry, STACK_LEN)?)?,
        };
        close(entry, STACK_LEN)?;
        Ok(stack)
    })?;
    let redirect_from = nullable(next(&mut row, REQUEST_LEN)?, |r| tables.url(r))?;
    let tag = index(next(&mut row, REQUEST_LEN)?, TRIGGERS, "trigger")?;
    let trigger_url = nullable(next(&mut row, REQUEST_LEN)?, |r| tables.text(r))?;
    let trigger = match (tag, trigger_url) {
        (0, None) => TriggerSource::Parser,
        (1, Some(url)) => TriggerSource::Script(url),
        (2, Some(url)) => TriggerSource::Css(url),
        (3, Some(url)) => TriggerSource::Redirect(url),
        (4, Some(url)) => TriggerSource::WebSocketPush(url),
        (5, None) => TriggerSource::Navigation,
        (tag, _) => {
            return Err(row
                .reader()
                .error(format!("trigger {tag} with a URL it does not take")))
        }
    };
    let started_ms = next(&mut row, REQUEST_LEN)?.int("u64")?;
    let completed_ms = next(&mut row, REQUEST_LEN)?.int("u64")?;
    let status = Status(next(&mut row, REQUEST_LEN)?.int("u16")?);
    let set_cookies = rows(next(&mut row, REQUEST_LEN)?, |r| tables.string(r))?;
    let is_frame_navigation = flag(next(&mut row, REQUEST_LEN)?)?;
    close(row, REQUEST_LEN)?;
    Ok(RequestRecord {
        id,
        url,
        resource_type,
        frame_id,
        call_stack,
        redirect_from,
        trigger,
        started_ms,
        completed_ms,
        status,
        set_cookies,
        is_frame_navigation,
    })
}

/// Read the header, and the rest when `full`.
fn read(payload: &str, full: bool) -> Result<VisitResult, Error> {
    let mut r = Reader::new(payload);
    let mut object = r.seq()?;
    let page = {
        let r = next(&mut object, OBJECT_LEN)?;
        url_row(r, Reader::str)?.url(r)?
    };
    let mut visit = VisitResult {
        page_url: page,
        success: flag(next(&mut object, OBJECT_LEN)?)?,
        timed_out: flag(next(&mut object, OBJECT_LEN)?)?,
        requests: Vec::new(),
        frames: Vec::new(),
        duration_ms: next(&mut object, OBJECT_LEN)?.int("u64")?,
        cookies: rows(next(&mut object, OBJECT_LEN)?, cookie)?,
    };
    if !full {
        return Ok(visit);
    }
    let mut tables = Tables::read(&mut object)?;
    visit.frames = rows(next(&mut object, OBJECT_LEN)?, |r| frame(r, &mut tables))?;
    visit.requests = rows(next(&mut object, OBJECT_LEN)?, |r| request(r, &mut tables))?;
    close(object, OBJECT_LEN)?;
    r.finish()?;
    Ok(visit)
}

/// Decode one stored object at `depth`, counting it under
/// `bundle.objects.decoded_header` or `bundle.objects.decoded_full`:
/// `None` at [`Depth::Address`], which parses nothing.
pub(crate) fn decode_at(payload: &str, depth: Depth) -> Result<Option<VisitResult>, String> {
    let visit = match depth {
        Depth::Address => return Ok(None),
        Depth::Header => {
            let visit = decode_header(payload)?;
            wmtree_telemetry::counter!("bundle.objects.decoded_header").inc();
            visit
        }
        Depth::Full => {
            let visit = decode(payload)?;
            wmtree_telemetry::counter!("bundle.objects.decoded_full").inc();
            visit
        }
    };
    Ok(Some(visit))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    /// A visit that uses every part of the format: every trigger, a call
    /// stack, a redirect whose origin no request has, cookie lines, jar
    /// cookies with every attribute, nested frames, URLs with a port,
    /// an empty and a full query and a fragment, URL-valued strings
    /// that spell a request URL and ones that do not, JSON escapes and
    /// non-ASCII text. `n` varies the numbers.
    pub(crate) fn rich_visit(n: u64) -> VisitResult {
        let page = url("https://www.a.com/");
        let script = url("https://cdn.a.com:8443/app.js?v=\"1\"");
        let urls = [
            page.clone(),
            url("https://cdn.a.com/style.css?"),
            script.clone(),
            url("https://ads.b.net/pixel.gif?uid=42&x=é#frag"),
            url("wss://sock.b.net/live"),
            url("https://bücher.de/\\path"),
        ];
        let triggers = [
            TriggerSource::Navigation,
            TriggerSource::Parser,
            TriggerSource::Script(script.to_string()),
            TriggerSource::Css("https://cdn.a.com/style.css?".into()),
            TriggerSource::Redirect("not a url \u{1}\t😀".into()),
            TriggerSource::WebSocketPush("wss://sock.b.net/live".into()),
        ];
        let mut visit = VisitResult::failed(page);
        visit.success = n.is_multiple_of(2);
        visit.timed_out = n.is_multiple_of(3);
        visit.duration_ms = 1000 + n;
        for (i, (u, trigger)) in urls.iter().zip(triggers).enumerate() {
            visit.requests.push(RequestRecord {
                id: n + i as u64,
                url: u.clone(),
                resource_type: RESOURCE_TYPES[(n as usize + i) % RESOURCE_TYPES.len()],
                frame_id: i as u32 % 3,
                call_stack: match i % 3 {
                    0 => Vec::new(),
                    1 => vec![StackEntry {
                        url: script.to_string(),
                        function: "issueRequest".into(),
                    }],
                    _ => vec![
                        StackEntry {
                            url: "inline \"script\"".into(),
                            function: "f\\g".into(),
                        },
                        StackEntry {
                            url: script.to_string(),
                            function: "issueRequest".into(),
                        },
                    ],
                },
                redirect_from: match i {
                    3 => Some(url("http://old.b.net:81/x?#")),
                    4 => Some(urls[1].clone()),
                    _ => None,
                },
                trigger,
                started_ms: 10 * i as u64,
                completed_ms: u64::MAX - i as u64,
                status: Status([200, 204, 302, 404, 500, 0][i]),
                set_cookies: match i % 2 {
                    0 => Vec::new(),
                    _ => vec!["sid=1; Path=/; SameSite=Lax".into(), "x=\"é\"".into()],
                },
                is_frame_navigation: i == 0 || i == 5,
            });
        }
        visit.frames = vec![
            FrameRecord {
                frame_id: 0,
                parent_frame_id: None,
                document_url: "https://www.a.com/".into(),
            },
            FrameRecord {
                frame_id: 1,
                parent_frame_id: Some(0),
                document_url: "https://bücher.de/\\path".into(),
            },
            FrameRecord {
                frame_id: 2,
                parent_frame_id: Some(1),
                document_url: "about:blank".into(),
            },
        ];
        for (i, same_site) in [
            None,
            Some(SameSite::Strict),
            Some(SameSite::Lax),
            Some(SameSite::None),
        ]
        .into_iter()
        .enumerate()
        {
            visit.cookies.push(Cookie {
                name: format!("c{i}\u{7f}"),
                value: "v\"\\\n".into(),
                domain: "a.com".into(),
                host_only: i % 2 == 0,
                path: "/".into(),
                secure: i > 1,
                http_only: i == 1,
                same_site,
                max_age: [None, Some(-1), Some(0), Some(i64::MAX)][i],
                expires: (i % 2 == 1).then(|| "Wed, 21 Oct 2015 07:28:00 GMT".into()),
            });
        }
        visit
    }

    /// `visit` with the parts a header-only decode leaves out emptied.
    pub(crate) fn header_of(mut visit: VisitResult) -> VisitResult {
        visit.requests.clear();
        visit.frames.clear();
        visit
    }

    #[test]
    fn rich_visits_roundtrip_at_both_depths() {
        for n in 0..6 {
            let visit = rich_visit(n);
            let payload = encode(&visit).unwrap();
            assert_eq!(encode(&visit).unwrap(), payload, "deterministic");
            assert_eq!(decode(&payload).unwrap(), visit);
            assert_eq!(decode_header(&payload).unwrap(), header_of(visit));
        }
    }

    #[test]
    fn url_valued_strings_refer_to_the_table() {
        let payload = encode(&rich_visit(0)).unwrap();
        // The script URL is spelled once, in its own `urls` entry; a
        // string that spells no request URL stays literal.
        assert_eq!(payload.matches("app.js").count(), 1, "{payload}");
        assert!(payload.contains("\"not a url \\u0001\\t😀\""), "{payload}");
        assert!(payload.contains("\"about:blank\""), "{payload}");
        // A redirect origin no request has gets an entry of its own.
        assert_eq!(payload.matches("old.b.net").count(), 1, "{payload}");
    }

    #[test]
    fn unstorable_urls_are_refused_on_encode() {
        let mut visit = rich_visit(0);
        visit.requests[1].url = serde_json::from_str(
            r#"{"scheme":"https","host":"A.com","port":null,"path":"/","query":null,"fragment":null}"#,
        )
        .unwrap();
        let err = encode(&visit).unwrap_err();
        assert!(err.contains("cannot be stored"), "{err}");
    }

    #[test]
    fn malformed_payloads_are_located_errors() {
        let good = encode(&rich_visit(0)).unwrap();
        let value: serde_json::Value = serde_json::from_str(&good).unwrap();
        let edit = |f: &dyn Fn(&mut Vec<serde_json::Value>)| {
            let mut v = value.clone();
            if let serde_json::Value::Seq(items) = &mut v {
                f(items);
            }
            serde_json::to_string(&v).unwrap()
        };
        let request = |items: &mut Vec<serde_json::Value>, field: usize, to: serde_json::Value| {
            if let serde_json::Value::Seq(rows) = &mut items[8] {
                if let serde_json::Value::Seq(row) = &mut rows[1] {
                    row[field] = to;
                }
            }
        };
        use serde_json::Value as V;
        let cases: Vec<(String, &str)> = vec![
            (
                edit(&|i| request(i, 1, V::U64(999))),
                "URL index 999 out of range",
            ),
            (
                edit(&|i| request(i, 2, V::U64(13))),
                "resource type index 13",
            ),
            (edit(&|i| request(i, 6, V::U64(6))), "trigger index 6"),
            (
                edit(&|i| request(i, 7, V::U64(0))),
                "trigger 0 with a URL it does not take",
            ),
            (
                edit(&|i| request(i, 12, V::U64(2))),
                "flag 2 is neither 0 nor 1",
            ),
            (
                edit(&|i| request(i, 11, V::Seq(vec![V::U64(99)]))),
                "string index 99",
            ),
            (
                edit(&|i| {
                    if let V::Seq(rows) = &mut i[8] {
                        if let V::Seq(row) = &mut rows[0] {
                            row.pop();
                        }
                    }
                }),
                "expected 13-element row",
            ),
            (edit(&|i| i.truncate(8)), "expected 9-element row"),
            (edit(&|i| i.push(V::Null)), "expected 9-element row"),
            (good.replace("\"www.a.com\"", "\"WWW.a.com\""), "malformed"),
            (format!("{good} x"), "trailing characters"),
        ];
        for (payload, want) in &cases {
            let Err(err) = decode(payload) else {
                panic!("{want}: decoded {payload}");
            };
            assert!(err.starts_with("unparseable visit payload: "), "{err}");
            assert!(err.contains(want), "{want}: {err}");
            assert!(err.contains(" at byte "), "located: {err}");
        }
        // The header stops before the table and the rows.
        assert!(decode_header(&cases[0].0).is_ok());
        assert!(decode_header("[[\"https\",\"a.com\",\"/\"],2").is_err());
    }
}
