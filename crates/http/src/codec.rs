//! HTTP/1.1 message framing: incremental parsing and serialization.
//!
//! [`HttpStream`] wraps any `AsyncRead + AsyncWrite` transport and
//! carries the read buffer across messages, so a connection can serve
//! sequential request/response exchanges (the prototype's proxies keep
//! connections alive per transfer).
//!
//! `Content-Length` is the only body framing read or written: a head
//! that declares `Transfer-Encoding`, or a `Connection: close` head
//! without a length, is refused with [`HttpError::Malformed`], so a
//! body never runs to EOF and its length is always declared up front.
//!
//! Heads and bodies are split: `read_request_head`/`read_response_head`
//! return the parsed head plus a [`Body`] handle. The handle either
//! already holds the bytes ([`Body::Full`], empty for a bodyless
//! message) or gives the body's declared length ([`Body::Stream`]);
//! the caller then chooses to materialize it ([`HttpStream::read_body`])
//! or to pipe it straight into a downstream writer
//! ([`HttpStream::pipe_body`]) without ever buffering the whole
//! payload — the relay path the device proxy uses. Any bytes read past
//! the head (the parse remnant) stay with the stream and are consumed
//! first by either driver.
//!
//! Bodies travel and are read by reference. A message's body leaves
//! [`HttpStream::write_request`]/[`HttpStream::write_response`] as a
//! view of its `Bytes` ([`AsyncWrite::poll_write_shared`]), and every
//! read keeps the views it is handed
//! ([`AsyncRead::poll_read_shared`]): only copied bytes, the heads,
//! land in the read buffer, and the unread input is that buffer
//! followed by a list of views. `pipe_body` forwards the views, and
//! `read_body` joins adjacent views of one buffer into the body. So
//! over the virtual net a body written by reference reaches its reader
//! without a copy; a body that arrives in any other pieces is copied
//! once, into one buffer of its declared length.

use std::fmt::{Display, Write as _};
use std::pin::Pin;

use bytes::{Bytes, BytesMut};
use tokio::io::{read_window, AsyncRead, AsyncWrite, AsyncWriteExt};

use crate::error::HttpError;
use crate::headers::Headers;
use crate::search::find_from;
use crate::{MAX_BODY_BYTES, MAX_HEADER_BYTES};

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Method, e.g. `GET`.
    pub method: String,
    /// Request target, e.g. `/q1/seg00001.ts`.
    pub target: String,
    /// Protocol version (always `HTTP/1.1` from this crate).
    pub version: String,
    /// Header lines.
    pub headers: Headers,
    /// Body bytes (empty for bodyless methods).
    pub body: Bytes,
}

impl Request {
    /// A GET request for `target`.
    pub fn get(target: impl Into<String>) -> Request {
        Request {
            method: "GET".into(),
            target: target.into(),
            version: "HTTP/1.1".into(),
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// A POST request with a body.
    pub fn post(target: impl Into<String>, content_type: &str, body: Bytes) -> Request {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        Request {
            method: "POST".into(),
            target: target.into(),
            version: "HTTP/1.1".into(),
            headers,
            body,
        }
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Protocol version.
    pub version: String,
    /// Header lines.
    pub headers: Headers,
    /// Body bytes.
    pub body: Bytes,
}

impl Response {
    /// A 200 response with a body.
    pub fn ok(content_type: &str, body: Bytes) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        Response { status: 200, reason: "OK".into(), version: "HTTP/1.1".into(), headers, body }
    }

    /// An empty response with the given status.
    pub fn status(status: u16, reason: &str) -> Response {
        Response {
            status,
            reason: reason.into(),
            version: "HTTP/1.1".into(),
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// A 404 response.
    pub fn not_found() -> Response {
        Response::status(404, "Not Found")
    }
}

/// The head of a request: everything before the body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestHead {
    /// Method, e.g. `GET`.
    pub method: String,
    /// Request target.
    pub target: String,
    /// Protocol version.
    pub version: String,
    /// Header lines.
    pub headers: Headers,
}

impl RequestHead {
    /// Attach a materialized body, recovering a full [`Request`].
    pub(crate) fn into_request(self, body: Bytes) -> Request {
        Request {
            method: self.method,
            target: self.target,
            version: self.version,
            headers: self.headers,
            body,
        }
    }
}

/// The head of a response: everything before the body.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseHead {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Protocol version.
    pub version: String,
    /// Header lines.
    pub headers: Headers,
}

impl ResponseHead {
    /// Attach a materialized body, recovering a full [`Response`].
    pub(crate) fn into_response(self, body: Bytes) -> Response {
        Response {
            status: self.status,
            reason: self.reason,
            version: self.version,
            headers: self.headers,
            body,
        }
    }
}

/// How a message body is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// No body follows the head.
    None,
    /// `Content-Length`-delimited: exactly this many bytes follow.
    Length(usize),
}

/// A handle to a message body returned alongside a parsed head.
///
/// `Full` already carries the bytes. `Stream` describes a body still
/// (partially) on the wire: the [`HttpStream`] that produced it holds
/// the parse remnant, and exactly one of [`HttpStream::read_body`] /
/// [`HttpStream::pipe_body`] must consume the handle before the next
/// message is read from that stream.
#[derive(Debug)]
#[must_use = "an unconsumed Stream body desynchronizes the connection"]
pub enum Body {
    /// The body is fully materialized.
    Full(Bytes),
    /// The body is still on the wire, framed as described.
    Stream(BodyFraming),
}

/// The one framing rule: a valid `Content-Length` frames that many
/// bytes (bounded by `MAX_BODY_BYTES`), and no `Content-Length` means
/// no body. A `Transfer-Encoding` head is refused, and so is a
/// `Connection: close` head without a length (a response's body would
/// run to EOF): no peer of the prototype frames a body either way.
fn body_framing(headers: &Headers) -> Result<BodyFraming, HttpError> {
    if headers.get("transfer-encoding").is_some() {
        return Err(HttpError::Malformed("Transfer-Encoding is not supported".into()));
    }
    if headers.get("content-length").is_some() {
        return match headers.content_length() {
            Some(len) if len <= MAX_BODY_BYTES => Ok(BodyFraming::Length(len)),
            _ => Err(HttpError::BodyTooLarge), // oversized or unparseable
        };
    }
    if headers.get("connection").is_some_and(|c| c.eq_ignore_ascii_case("close")) {
        return Err(HttpError::Malformed("close-delimited body".into()));
    }
    Ok(BodyFraming::None)
}

/// A buffered HTTP connection over any async transport.
///
/// Its unread input is the read buffer followed by the view list.
/// Every read is a shared read that lands its leading copied bytes in
/// the buffer and pushes the rest onto the list, so a head is parsed in
/// the buffer and a body written by reference stays a view. Each read
/// is offered the window a read into the buffer would be
/// ([`read_window`]), so throttled reads wait for the same tokens
/// whether their bytes are copied or shared.
#[derive(Debug)]
pub struct HttpStream<T> {
    io: T,
    /// Read buffer: the unread input's copied bytes. A head is parsed
    /// here, and the bytes past it (the remnant) are consumed first by
    /// the body drivers.
    buf: BytesMut,
    /// Reused head-serialization buffer: heads of sequential messages
    /// on a kept-alive connection share one allocation.
    head_buf: BytesMut,
    /// The unread input's views, which follow `buf`: what reads handed
    /// out by reference. Reused, so a message allocates no list.
    views: Vec<Bytes>,
}

impl<T: AsyncRead + AsyncWrite + Unpin> HttpStream<T> {
    /// Wrap a transport. The read and head buffers start empty and are
    /// sized lazily by the first read/write, so a one-shot exchange
    /// allocates only what it uses.
    ///
    /// The view list is allocated here, before any body is live, and
    /// never while one is: a small allocation made inside a relayed
    /// body (on the first `pipe_body` call, or on every one) can leave
    /// glibc trimming the heap after each body and re-faulting its
    /// pages, which halved the `relay_up` benchmark's throughput at
    /// ~2 M minor faults per 5 s run.
    pub fn new(io: T) -> HttpStream<T> {
        let views = Vec::with_capacity(4);
        HttpStream { io, buf: BytesMut::new(), head_buf: BytesMut::new(), views }
    }

    /// The underlying transport, e.g. as the sink for another stream's
    /// [`pipe_body`](Self::pipe_body).
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.io
    }

    /// Flush the transport (the head/body writers do not flush, so a
    /// relay can push head and body before paying one flush).
    pub async fn flush(&mut self) -> Result<(), HttpError> {
        self.io.flush().await?;
        Ok(())
    }

    /// Read one request head. `Ok(None)` on clean end-of-stream before
    /// any byte of a new message. The returned [`Body`] must be
    /// consumed via [`read_body`](Self::read_body) or
    /// [`pipe_body`](Self::pipe_body) before the next read.
    pub async fn read_request_head(&mut self) -> Result<Option<(RequestHead, Body)>, HttpError> {
        self.read_head(|start, headers| {
            let mut parts = start.split_whitespace();
            let mut field = |name: &str| {
                parts
                    .next()
                    .map(str::to_string)
                    .ok_or_else(|| HttpError::Malformed(format!("missing {name}")))
            };
            Ok(RequestHead {
                method: field("method")?,
                target: field("target")?,
                version: field("version")?,
                headers,
            })
        })
        .await
    }

    /// Read one response head, plus the [`Body`] handle to consume.
    pub async fn read_response_head(&mut self) -> Result<(ResponseHead, Body), HttpError> {
        self.read_head(|start, headers| {
            let mut parts = start.splitn(3, ' ');
            let version = parts.next().unwrap_or("").to_string();
            let status = parts
                .next()
                .ok_or_else(|| HttpError::Malformed("missing status".into()))?
                .parse()
                .map_err(|_| HttpError::Malformed("bad status code".into()))?;
            let reason = parts.next().unwrap_or("").to_string();
            Ok(ResponseHead { status, reason, version, headers })
        })
        .await?
        .ok_or(HttpError::UnexpectedEof)
    }

    /// Read one head: fill the buffer through the blank line, parse
    /// the header lines, decide the body's framing, hand the start
    /// line and headers to `parse`, and consume the head. `Ok(None)` on
    /// clean end-of-stream before any byte of a new message.
    async fn read_head<H>(
        &mut self,
        parse: impl FnOnce(&str, Headers) -> Result<H, HttpError>,
    ) -> Result<Option<(H, Body)>, HttpError> {
        let Some(head_end) = self.fill_until_headers().await? else {
            return Ok(None);
        };
        let text = std::str::from_utf8(&self.buf[..head_end - 4])
            .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
        let mut lines = text.split("\r\n");
        let start = lines.next().unwrap_or("");
        let headers = parse_headers(lines)?;
        let body = match body_framing(&headers)? {
            BodyFraming::None => Body::Full(Bytes::new()),
            framing => Body::Stream(framing),
        };
        let head = parse(start, headers)?;
        self.buf.advance(head_end);
        Ok(Some((head, body)))
    }

    /// Read one request. `Ok(None)` on clean end-of-stream before any
    /// byte of a new message.
    pub async fn read_request(&mut self) -> Result<Option<Request>, HttpError> {
        let Some((head, body)) = self.read_request_head().await? else {
            return Ok(None);
        };
        let body = self.read_body(body).await?;
        Ok(Some(head.into_request(body)))
    }

    /// Read one response.
    pub async fn read_response(&mut self) -> Result<Response, HttpError> {
        let (head, body) = self.read_response_head().await?;
        let body = self.read_body(body).await?;
        Ok(head.into_response(body))
    }

    /// Materialize a [`Body`] into contiguous bytes: the parse remnant
    /// first (the read buffer's bytes, then the views), then reads.
    /// While every piece continues the last in one buffer, the pieces
    /// join into one view of it ([`Bytes::try_join`]), so a body
    /// written by reference comes back as a view of its writer's
    /// buffer, with no copy and no allocation. Any other piece falls
    /// back to one buffer allocated at the declared length, which
    /// copies what was joined so far. The read buffer stays with the
    /// stream for the next message.
    ///
    /// Each read is offered the window a body-sized read buffer would
    /// offer, the [`read_window`] of the bytes remaining, so throttled
    /// reads wait for the same tokens. A read of that whole window
    /// lands its copied bytes in a scratch vector, or straight in the
    /// fallback buffer once there is one, never in the read buffer,
    /// whose capacity steers later windows. A final read of fewer
    /// bytes than its window reserves the window in the read buffer, as
    /// a read into it would, and whatever it pulls past the body stays
    /// unread.
    pub async fn read_body(&mut self, body: Body) -> Result<Bytes, HttpError> {
        let len = match body {
            Body::Full(bytes) => return Ok(bytes),
            Body::Stream(BodyFraming::None) => return Ok(Bytes::new()),
            Body::Stream(BodyFraming::Length(len)) => len,
        };
        let mut got = Assembly::Joined(Bytes::new());
        self.take_unread(&mut got, len);
        let mut scratch = Vec::new();
        while got.len() < len {
            let remaining = len - got.len();
            let window = read_window(remaining);
            let n = if window <= remaining {
                let copied = match &mut got {
                    Assembly::Copied(out) => out.storage_mut(),
                    Assembly::Joined(_) => &mut scratch,
                };
                let n = read_shared(&mut self.io, window, copied, &mut self.views).await?;
                got.push_copied(&scratch, len);
                scratch.clear();
                n
            } else {
                self.read_into_buf(window).await?
            };
            self.take_unread(&mut got, len);
            if n == 0 {
                return Err(HttpError::UnexpectedEof);
            }
        }
        Ok(got.into_bytes())
    }

    /// Move unread bytes into `body` until it holds `len` bytes, the
    /// read buffer's first and then the views; what the views hold past
    /// the body lands in the read buffer, unread.
    fn take_unread(&mut self, body: &mut Assembly, len: usize) {
        let k = (len - body.len()).min(self.buf.len());
        body.push_copied(&self.buf[..k], len);
        self.buf.advance(k);
        for mut view in self.views.drain(..) {
            let k = (len - body.len()).min(view.len());
            if k < view.len() {
                self.buf.extend_from_slice(&view[k..]);
                view = view.slice(..k);
            }
            body.push_view(view, len);
        }
    }

    /// Drive a [`Body`] into `sink` without materializing it: unread
    /// bytes are forwarded as they came, the read buffer's by copy and
    /// the views by reference, the parse remnant first and then each
    /// read's, so the window is bounded by one read (never the whole
    /// body). Returns the number of bytes forwarded. The sink is not
    /// flushed.
    ///
    /// Each read is offered the [`read_window`] of the read buffer's
    /// spare capacity, which is reserved as the read's copied bytes
    /// land there, so throttled reads wait for the same tokens as a
    /// read into the buffer; bytes a read takes past the body stay
    /// unread.
    pub async fn pipe_body<W: AsyncWrite + Unpin>(
        &mut self,
        body: Body,
        sink: &mut W,
    ) -> Result<u64, HttpError> {
        let len = match body {
            Body::Full(bytes) => {
                write_all_shared(sink, &[], &bytes).await?;
                return Ok(bytes.len() as u64);
            }
            Body::Stream(BodyFraming::None) => 0,
            Body::Stream(BodyFraming::Length(len)) => len,
        };
        let mut remaining = len;
        loop {
            let k = remaining.min(self.buf.len());
            sink.write_all(&self.buf[..k]).await?;
            self.buf.advance(k);
            remaining -= k;
            for mut view in self.views.drain(..) {
                let k = remaining.min(view.len());
                if k < view.len() {
                    self.buf.extend_from_slice(&view[k..]);
                    view = view.slice(..k);
                }
                write_all_shared(sink, &[], &view).await?;
                remaining -= k;
            }
            if remaining == 0 {
                return Ok(len as u64);
            }
            let window = read_window(self.buf.spare_capacity());
            if self.read_into_buf(window).await? == 0 {
                return Err(HttpError::UnexpectedEof);
            }
        }
    }

    /// Serialize and send a request (Content-Length is set from the
    /// body). Head and body leave in one gather-write.
    pub async fn write_request(&mut self, req: &Request) -> Result<(), HttpError> {
        self.write_message([&req.method, &req.target, &req.version], &req.headers, &req.body).await
    }

    /// Serialize and send a response. Head and body leave in one
    /// gather-write.
    pub async fn write_response(&mut self, resp: &Response) -> Result<(), HttpError> {
        self.write_message([&resp.version, &resp.status, &resp.reason], &resp.headers, &resp.body)
            .await
    }

    /// Serialize and send a request head whose body will follow with
    /// the given framing (relay use; does not flush).
    pub async fn write_request_head(
        &mut self,
        head: &RequestHead,
        framing: BodyFraming,
    ) -> Result<(), HttpError> {
        self.encode_head([&head.method, &head.target, &head.version], &head.headers, framing);
        self.io.write_all(&self.head_buf).await?;
        Ok(())
    }

    /// Serialize and send a response head whose body will follow with
    /// the given framing (relay use; does not flush).
    pub async fn write_response_head(
        &mut self,
        head: &ResponseHead,
        framing: BodyFraming,
    ) -> Result<(), HttpError> {
        self.encode_head([&head.version, &head.status, &head.reason], &head.headers, framing);
        self.io.write_all(&self.head_buf).await?;
        Ok(())
    }

    /// Send a materialized message: its head framed by the body's
    /// length (none for an empty body), then the body by reference, in
    /// one gather-write, then flush.
    async fn write_message(
        &mut self,
        start: [&(dyn Display + Sync); 3],
        headers: &Headers,
        body: &Bytes,
    ) -> Result<(), HttpError> {
        let framing =
            if body.is_empty() { BodyFraming::None } else { BodyFraming::Length(body.len()) };
        self.encode_head(start, headers, framing);
        write_all_shared(&mut self.io, &self.head_buf, body).await?;
        self.io.flush().await?;
        Ok(())
    }

    /// Serialize a head into the reused head buffer: the start line's
    /// three fields, then the header lines. `Length(n)` rewrites a
    /// `Content-Length` header in place or appends one; `None` rewrites
    /// one to 0 and appends none.
    fn encode_head(
        &mut self,
        start: [&(dyn Display + Sync); 3],
        headers: &Headers,
        framing: BodyFraming,
    ) {
        let head = &mut self.head_buf;
        head.clear();
        let [a, b, c] = start;
        let _ = write!(head, "{a} {b} {c}\r\n");
        let len = match framing {
            BodyFraming::None => 0,
            BodyFraming::Length(len) => len,
        };
        let mut wrote_len = false;
        for (name, value) in headers.iter() {
            if name.eq_ignore_ascii_case("content-length") {
                wrote_len = true;
                let _ = write!(head, "Content-Length: {len}\r\n");
            } else {
                let _ = write!(head, "{name}: {value}\r\n");
            }
        }
        if !wrote_len && framing != BodyFraming::None {
            let _ = write!(head, "Content-Length: {len}\r\n");
        }
        head.extend_from_slice(b"\r\n");
    }

    /// Fill the buffer until a complete header block is present.
    /// Returns the offset just past `\r\n\r\n`, or `None` on clean EOF
    /// with no unread byte. A head longer than [`MAX_HEADER_BYTES`] is
    /// refused wherever the transport splits it. Each pass scans only
    /// the new bytes plus a 3-byte overlap, so a large head is examined
    /// once, not O(n²).
    ///
    /// A head is written by copy, so it lands in the buffer and the
    /// views after it stay listed. When the buffer holds no blank line
    /// but views are listed (a head written by reference, or the views
    /// a body nobody consumed left), they are copied in whole, as a
    /// plain read would have left them, before anything more is read.
    async fn fill_until_headers(&mut self) -> Result<Option<usize>, HttpError> {
        let mut scanned = 0;
        loop {
            if let Some(pos) = find_from(&self.buf, scanned, b"\r\n\r\n") {
                if pos + 4 > MAX_HEADER_BYTES {
                    return Err(HttpError::HeadersTooLarge);
                }
                return Ok(Some(pos + 4));
            }
            scanned = self.buf.len();
            if !self.views.is_empty() {
                for view in self.views.drain(..) {
                    self.buf.extend_from_slice(&view);
                }
                continue;
            }
            if scanned >= MAX_HEADER_BYTES {
                return Err(HttpError::HeadersTooLarge);
            }
            let n = self.read_into_buf(read_window(self.buf.spare_capacity())).await?;
            if n == 0 {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::UnexpectedEof);
            }
        }
    }

    /// One read of at most `window` bytes into the read buffer, which
    /// first reserves room for the whole window (growing as
    /// `Vec::reserve` does): its copied bytes land in the buffer's spare
    /// capacity, and its views join the list. Returns how many bytes
    /// were read, zero at EOF.
    async fn read_into_buf(&mut self, window: usize) -> std::io::Result<usize> {
        self.buf.reserve(window);
        read_shared(&mut self.io, window, self.buf.storage_mut(), &mut self.views).await
    }
}

/// A body being read: one view while each piece continues the last in
/// one buffer, else one buffer allocated at the body's declared length.
enum Assembly {
    /// The pieces so far, joined into one view (empty before the first).
    Joined(Bytes),
    /// The pieces so far, copied.
    Copied(BytesMut),
}

impl Assembly {
    fn len(&self) -> usize {
        match self {
            Assembly::Joined(view) => view.len(),
            Assembly::Copied(out) => out.len(),
        }
    }

    /// Append a view: joined by reference when it continues the body's
    /// one view, else copied. An empty view is dropped, so a body holds
    /// no buffer it has no byte of.
    fn push_view(&mut self, view: Bytes, len: usize) {
        if view.is_empty() {
            return;
        }
        if let Assembly::Joined(joined) = self {
            if joined.is_empty() {
                *joined = view;
                return;
            }
            if joined.try_join(&view) {
                return;
            }
        }
        self.push_copied(&view, len);
    }

    /// Append copied bytes. The first non-empty ones fall back to one
    /// buffer of the declared length `len`, holding what was joined.
    fn push_copied(&mut self, bytes: &[u8], len: usize) {
        if bytes.is_empty() {
            return;
        }
        if let Assembly::Joined(joined) = self {
            let mut out = BytesMut::with_capacity(len);
            out.extend_from_slice(joined);
            *self = Assembly::Copied(out);
        }
        if let Assembly::Copied(out) = self {
            out.extend_from_slice(bytes);
        }
    }

    fn into_bytes(self) -> Bytes {
        match self {
            Assembly::Joined(view) => view,
            Assembly::Copied(out) => out.freeze(),
        }
    }
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Headers, HttpError> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.add(name.trim(), value.trim());
    }
    Ok(headers)
}

/// One shared read of at most `max` bytes from `io`: its leading copied
/// bytes are appended to `copied`, and its views to `views`.
async fn read_shared<R: AsyncRead + Unpin>(
    io: &mut R,
    max: usize,
    copied: &mut Vec<u8>,
    views: &mut Vec<Bytes>,
) -> std::io::Result<usize> {
    std::future::poll_fn(|cx| Pin::new(&mut *io).poll_read_shared(cx, max, copied, views)).await
}

/// Write the whole of `head`, then of `body` by reference, each call a
/// gather-write of what is left, so both land in the transport in one
/// wakeup when it has room. The body is sliced only after a partial
/// write, so a message that fits takes no extra reference to it.
async fn write_all_shared<W: AsyncWrite + Unpin>(
    io: &mut W,
    mut head: &[u8],
    body: &Bytes,
) -> Result<(), HttpError> {
    let mut rest = None;
    loop {
        let part = rest.as_ref().unwrap_or(body);
        if head.is_empty() && part.is_empty() {
            return Ok(());
        }
        let n =
            std::future::poll_fn(|cx| Pin::new(&mut *io).poll_write_shared(cx, head, part)).await?;
        if n == 0 {
            return Err(HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "wrote zero bytes of a non-empty message",
            )));
        }
        let from_head = n.min(head.len());
        head = &head[from_head..];
        if n > from_head {
            rest = Some(part.slice(n - from_head..));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::task::{Context, Poll};

    use tokio::io::AsyncReadExt;

    use super::*;

    #[tokio::test]
    async fn request_round_trip() {
        let (client, server) = tokio::io::duplex(64 * 1024);
        let mut c = HttpStream::new(client);
        let mut s = HttpStream::new(server);
        let mut req = Request::get("/q1/index.m3u8");
        req.headers.set("Host", "origin");
        c.write_request(&req).await.unwrap();
        let got = s.read_request().await.unwrap().unwrap();
        assert_eq!(got.method, "GET");
        assert_eq!(got.target, "/q1/index.m3u8");
        assert_eq!(got.headers.get("host"), Some("origin"));
        assert!(got.body.is_empty());
    }

    #[tokio::test]
    async fn response_round_trip_with_body() {
        let (client, server) = tokio::io::duplex(64 * 1024);
        let mut c = HttpStream::new(client);
        let mut s = HttpStream::new(server);
        let body = Bytes::from(vec![7u8; 100_000]);
        let resp = Response::ok("video/mp2t", body.clone());
        tokio::spawn(async move {
            s.write_response(&resp).await.unwrap();
        });
        let got = c.read_response().await.unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.headers.content_length(), Some(100_000));
        assert_eq!(got.body, body);
    }

    #[tokio::test]
    async fn post_round_trip() {
        let (client, server) = tokio::io::duplex(64 * 1024);
        let mut c = HttpStream::new(client);
        let mut s = HttpStream::new(server);
        let req =
            Request::post("/upload", "application/octet-stream", Bytes::from_static(b"pixels"));
        c.write_request(&req).await.unwrap();
        let got = s.read_request().await.unwrap().unwrap();
        assert_eq!(got.method, "POST");
        assert_eq!(&got.body[..], b"pixels");
    }

    #[tokio::test]
    async fn sequential_messages_share_buffer() {
        let (client, server) = tokio::io::duplex(64 * 1024);
        let mut c = HttpStream::new(client);
        let mut s = HttpStream::new(server);
        for i in 0..3 {
            c.write_request(&Request::get(format!("/seg{i}.ts"))).await.unwrap();
        }
        for i in 0..3 {
            let got = s.read_request().await.unwrap().unwrap();
            assert_eq!(got.target, format!("/seg{i}.ts"));
        }
    }

    #[tokio::test]
    async fn clean_eof_returns_none() {
        let (client, server) = tokio::io::duplex(1024);
        drop(client);
        let mut s = HttpStream::new(server);
        assert!(s.read_request().await.unwrap().is_none());
    }

    #[tokio::test]
    async fn truncated_message_is_an_error() {
        let (mut client, server) = tokio::io::duplex(1024);
        client.write_all(b"GET /x HTTP/1.1\r\nContent-").await.unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        assert!(matches!(s.read_request().await, Err(HttpError::UnexpectedEof)));
    }

    #[tokio::test]
    async fn truncated_body_is_an_error() {
        let (mut client, server) = tokio::io::duplex(1024);
        client.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").await.unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        assert!(matches!(s.read_request().await, Err(HttpError::UnexpectedEof)));
    }

    #[tokio::test]
    async fn malformed_start_line_rejected() {
        let (mut client, server) = tokio::io::duplex(1024);
        client.write_all(b"GET\r\n\r\n").await.unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        assert!(matches!(s.read_request().await, Err(HttpError::Malformed(_))));
    }

    #[tokio::test]
    async fn transfer_encoding_heads_are_refused() {
        let heads: [&[u8]; 3] = [
            b"POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            b"POST /upload HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: identity\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n0\r\n\r\n",
        ];
        for wire in heads {
            let (mut client, server) = tokio::io::duplex(1024);
            client.write_all(wire).await.unwrap();
            drop(client);
            let mut s = HttpStream::new(server);
            let got = if wire.starts_with(b"HTTP/") {
                s.read_response().await.map(|r| r.body)
            } else {
                s.read_request().await.map(|r| r.unwrap().body)
            };
            assert!(matches!(got, Err(HttpError::Malformed(_))), "{got:?}");
        }
    }

    #[tokio::test]
    async fn close_delimited_responses_are_refused() {
        let (mut client, server) = tokio::io::duplex(1024);
        client
            .write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nstream-until-eof")
            .await
            .unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        assert!(matches!(s.read_response().await, Err(HttpError::Malformed(_))));

        // With a declared length the same header is fine.
        let (mut client, server) = tokio::io::duplex(1024);
        client
            .write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok")
            .await
            .unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        assert_eq!(&s.read_response().await.unwrap().body[..], b"ok");
    }

    #[tokio::test]
    async fn writers_emit_exact_bytes() {
        let headers = |pairs: &[(&str, &str)]| {
            let mut h = Headers::new();
            for (name, value) in pairs {
                h.add(*name, *value);
            }
            h
        };
        // Heads whose own Content-Length is rewritten in place.
        let mut stale = Response::ok("text/plain", Bytes::from_static(b"abcd"));
        stale.headers = headers(&[("Content-Length", "99"), ("Content-Type", "text/plain")]);
        let mut empty = Response::status(204, "No Content");
        empty.headers = headers(&[("content-length", "7")]);
        let request_head = |method: &str, target: &str, pairs| RequestHead {
            method: method.into(),
            target: target.into(),
            version: "HTTP/1.1".into(),
            headers: headers(pairs),
        };
        let get = request_head("GET", "/probe.bin", &[("Host", "origin")]);
        let post = request_head("POST", "/upload", &[("Content-Length", "6"), ("X-A", "1")]);
        let ok = ResponseHead {
            status: 200,
            reason: "OK".into(),
            version: "HTTP/1.1".into(),
            headers: headers(&[("Content-Type", "video/mp2t")]),
        };

        let (io, mut wire) = tokio::io::duplex(64 * 1024);
        let mut w = HttpStream::new(io);
        w.write_request(&Request::get("/q1/seg00001.ts")).await.unwrap();
        let photo = Request::post("/upload", "text/plain", Bytes::from_static(b"pixels"));
        w.write_request(&photo).await.unwrap();
        w.write_response(&Response::not_found()).await.unwrap();
        w.write_response(&Response::ok("video/mp2t", Bytes::from_static(b"abc"))).await.unwrap();
        w.write_response(&stale).await.unwrap();
        w.write_response(&empty).await.unwrap();
        w.write_request_head(&get, BodyFraming::None).await.unwrap();
        w.write_request_head(&post, BodyFraming::Length(6)).await.unwrap();
        w.write_response_head(&ok, BodyFraming::Length(5)).await.unwrap();
        drop(w);
        let mut got = Vec::new();
        wire.read_to_end(&mut got).await.unwrap();
        assert_eq!(
            String::from_utf8(got).unwrap(),
            concat!(
                "GET /q1/seg00001.ts HTTP/1.1\r\n\r\n",
                "POST /upload HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: 6\r\n\r\n",
                "pixels",
                "HTTP/1.1 404 Not Found\r\n\r\n",
                "HTTP/1.1 200 OK\r\nContent-Type: video/mp2t\r\nContent-Length: 3\r\n\r\nabc",
                "HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Type: text/plain\r\n\r\nabcd",
                "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n",
                "GET /probe.bin HTTP/1.1\r\nHost: origin\r\n\r\n",
                "POST /upload HTTP/1.1\r\nContent-Length: 6\r\nX-A: 1\r\n\r\n",
                "HTTP/1.1 200 OK\r\nContent-Type: video/mp2t\r\nContent-Length: 5\r\n\r\n",
            )
        );
    }

    #[tokio::test]
    async fn oversized_headers_rejected() {
        let (mut client, server) = tokio::io::duplex(256 * 1024);
        let mut msg = b"GET / HTTP/1.1\r\n".to_vec();
        msg.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 10));
        tokio::spawn(async move {
            let _ = client.write_all(&msg).await;
        });
        let mut s = HttpStream::new(server);
        assert!(matches!(s.read_request().await, Err(HttpError::HeadersTooLarge)));
    }

    #[tokio::test]
    async fn short_final_read_leaves_the_next_message_buffered() {
        // The head's read carries the first 8 KiB, so the body's last
        // ~1.8 KB arrive in a short final read, which also pulls in the
        // whole next response: it must stay in the read buffer.
        let (mut client, server) = tokio::io::duplex(64 * 1024);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut msg = b"HTTP/1.1 200 OK\r\nContent-Length: 10000\r\n\r\n".to_vec();
        msg.extend_from_slice(&payload);
        msg.extend_from_slice(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nnext");
        client.write_all(&msg).await.unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        let resp = s.read_response().await.unwrap();
        assert_eq!(&resp.body[..], &payload[..]);
        assert_eq!(&s.read_response().await.unwrap().body[..], b"next");
    }

    #[tokio::test]
    async fn head_then_streamed_body_matches_buffered() {
        let (mut client, server) = tokio::io::duplex(64 * 1024);
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let mut msg = b"HTTP/1.1 200 OK\r\nContent-Length: 50000\r\n\r\n".to_vec();
        msg.extend_from_slice(&payload);
        tokio::spawn(async move {
            client.write_all(&msg).await.unwrap();
        });
        let mut s = HttpStream::new(server);
        let (head, body) = s.read_response_head().await.unwrap();
        assert_eq!(head.status, 200);
        assert!(matches!(body, Body::Stream(BodyFraming::Length(50_000))));
        let mut sink = Vec::new();
        let piped = s.pipe_body(body, &mut sink).await.unwrap();
        assert_eq!(piped, 50_000);
        assert_eq!(sink, payload);
    }

    #[tokio::test]
    async fn pipelined_messages_survive_body_handoff() {
        // Two responses written back to back: materializing the first
        // body must leave the second message's bytes in the buffer.
        let (mut client, server) = tokio::io::duplex(64 * 1024);
        let mut msg = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst".to_vec();
        msg.extend_from_slice(b"HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nsecond");
        client.write_all(&msg).await.unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        let a = s.read_response().await.unwrap();
        let b = s.read_response().await.unwrap();
        assert_eq!(&a.body[..], b"first");
        assert_eq!(&b.body[..], b"second");
    }

    /// A transport whose reads record the window each poll is offered,
    /// plain and shared alike; its writes are discarded.
    struct WindowLog<T> {
        io: T,
        windows: Vec<usize>,
    }

    impl<T: AsyncRead + Unpin> AsyncRead for WindowLog<T> {
        fn poll_read(
            mut self: Pin<&mut Self>,
            cx: &mut Context<'_>,
            buf: &mut tokio::io::ReadBuf<'_>,
        ) -> Poll<std::io::Result<()>> {
            self.windows.push(buf.remaining());
            Pin::new(&mut self.io).poll_read(cx, buf)
        }

        fn poll_read_shared(
            mut self: Pin<&mut Self>,
            cx: &mut Context<'_>,
            max: usize,
            copied: &mut Vec<u8>,
            out: &mut Vec<Bytes>,
        ) -> Poll<std::io::Result<usize>> {
            self.windows.push(max);
            Pin::new(&mut self.io).poll_read_shared(cx, max, copied, out)
        }
    }

    impl<T: Unpin> AsyncWrite for WindowLog<T> {
        fn poll_write(
            self: Pin<&mut Self>,
            _cx: &mut Context<'_>,
            buf: &[u8],
        ) -> Poll<std::io::Result<usize>> {
            Poll::Ready(Ok(buf.len()))
        }
        fn poll_flush(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
            Poll::Ready(Ok(()))
        }
        fn poll_shutdown(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
            Poll::Ready(Ok(()))
        }
    }

    #[tokio::test]
    async fn a_large_body_is_read_through_64_kib_windows() {
        // The window rule is part of the model (`read_window`): every
        // read is offered 8 to 64 KiB, and a body with more than 64 KiB
        // left is read through the full 64 KiB window. The body crosses
        // the pipe by reference, so its reads are shared reads, and it
        // comes back as a view of the writer's buffer.
        let (client, server) = tokio::io::duplex(256 * 1024);
        let body = Bytes::from((0..200_000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let mut c = HttpStream::new(client);
        c.write_response(&Response::ok("video/mp2t", body.clone())).await.unwrap();
        drop(c);
        let mut s = HttpStream::new(WindowLog { io: server, windows: Vec::new() });
        let got = s.read_response().await.unwrap().body;
        assert_eq!(got, body);
        assert_eq!(got.as_ptr(), body.as_ptr(), "the body was copied");
        let windows = &s.get_mut().windows;
        assert!(windows.iter().all(|w| (8_192..=65_536).contains(w)), "windows {windows:?}");
        assert!(windows.contains(&65_536), "windows {windows:?}");
    }

    #[tokio::test]
    async fn a_head_written_by_reference_is_copied_in_whole() {
        // Two responses shared as one view: the head reads find no
        // blank line among copied bytes, so they copy the views in, and
        // each body is then read out of the read buffer.
        let (mut client, server) = tokio::io::duplex(64 * 1024);
        let wire = Bytes::from_static(
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirstHTTP/1.1 200 OK\r\n\r\n",
        );
        write_all_shared(&mut client, &[], &wire).await.unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        assert_eq!(&s.read_response().await.unwrap().body[..], b"first");
        let second = s.read_response().await.unwrap();
        assert_eq!((second.status, second.body.len()), (200, 0));
        assert!(matches!(s.read_response().await, Err(HttpError::UnexpectedEof)));
    }
}
