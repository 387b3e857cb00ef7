//! HTTP/1.1 message framing: incremental parsing and serialization.
//!
//! [`HttpStream`] wraps any `AsyncRead + AsyncWrite` transport and
//! carries the read buffer across messages, so a connection can serve
//! sequential request/response exchanges (the prototype's proxies keep
//! connections alive per transfer).
//!
//! Heads and bodies are split: `read_request_head`/`read_response_head`
//! return the parsed head plus a [`Body`] handle. The handle either
//! already holds the bytes ([`Body::Full`]) or describes how the body
//! is framed on the wire ([`Body::Stream`]); the caller then chooses to
//! materialize it ([`HttpStream::read_body`]) or to pipe it straight
//! into a downstream writer ([`HttpStream::pipe_body`]) without ever
//! buffering the whole payload — the relay path the device proxy uses.
//! Any bytes read past the head (the parse remnant) stay in the stream
//! buffer and are consumed first by either driver.

use std::fmt::Write as _;
use std::io::IoSlice;

use bytes::{Bytes, BytesMut};
use tokio::io::{AsyncRead, AsyncReadExt, AsyncWrite, AsyncWriteExt};

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
    /// `Transfer-Encoding: chunked`.
    Chunked,
    /// Close-delimited: the body runs until EOF (responses only).
    Eof,
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

/// Derive the body framing from a parsed header block. Mirrors the
/// decisions the buffered reader has always made, including the error
/// cases (oversized or unparseable `Content-Length`).
fn body_framing(headers: &Headers, read_to_eof_allowed: bool) -> Result<BodyFraming, HttpError> {
    if headers.is_chunked() {
        return Ok(BodyFraming::Chunked);
    }
    if let Some(len) = headers.content_length() {
        if len > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge);
        }
        return Ok(BodyFraming::Length(len));
    }
    if headers.get("content-length").is_some() {
        return Err(HttpError::BodyTooLarge); // present but unparseable
    }
    if read_to_eof_allowed
        && headers.get("connection").is_some_and(|c| c.eq_ignore_ascii_case("close"))
    {
        return Ok(BodyFraming::Eof);
    }
    Ok(BodyFraming::None)
}

/// A buffered HTTP connection over any async transport.
#[derive(Debug)]
pub struct HttpStream<T> {
    io: T,
    /// Read buffer; bytes past a parsed head (the remnant) stay here
    /// and are consumed first by the body drivers.
    buf: BytesMut,
    /// Reused head-serialization buffer: heads of sequential messages
    /// on a kept-alive connection share one allocation.
    head_buf: BytesMut,
}

impl<T: AsyncRead + AsyncWrite + Unpin> HttpStream<T> {
    /// Wrap a transport. Buffers start empty and are sized lazily by
    /// the first read/write, so a one-shot exchange allocates only
    /// what it uses.
    pub fn new(io: T) -> HttpStream<T> {
        HttpStream { io, buf: BytesMut::new(), head_buf: BytesMut::new() }
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
        let Some(head_end) = self.fill_until_headers().await? else {
            return Ok(None);
        };
        let head = {
            let text = std::str::from_utf8(&self.buf[..head_end - 4])
                .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
            let mut lines = text.split("\r\n");
            let start = lines.next().ok_or_else(|| HttpError::Malformed("empty head".into()))?;
            let mut parts = start.split_whitespace();
            let method = parts
                .next()
                .ok_or_else(|| HttpError::Malformed("missing method".into()))?
                .to_string();
            let target = parts
                .next()
                .ok_or_else(|| HttpError::Malformed("missing target".into()))?
                .to_string();
            let version = parts
                .next()
                .ok_or_else(|| HttpError::Malformed("missing version".into()))?
                .to_string();
            let headers = parse_headers(lines)?;
            RequestHead { method, target, version, headers }
        };
        self.buf.advance(head_end);
        let body = match body_framing(&head.headers, false)? {
            BodyFraming::None => Body::Full(Bytes::new()),
            framing => Body::Stream(framing),
        };
        Ok(Some((head, body)))
    }

    /// Read one response head, plus the [`Body`] handle to consume.
    pub async fn read_response_head(&mut self) -> Result<(ResponseHead, Body), HttpError> {
        let head_end = self.fill_until_headers().await?.ok_or(HttpError::UnexpectedEof)?;
        let head = {
            let text = std::str::from_utf8(&self.buf[..head_end - 4])
                .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
            let mut lines = text.split("\r\n");
            let start = lines.next().ok_or_else(|| HttpError::Malformed("empty head".into()))?;
            let mut parts = start.splitn(3, ' ');
            let version = parts
                .next()
                .ok_or_else(|| HttpError::Malformed("missing version".into()))?
                .to_string();
            let status: u16 = parts
                .next()
                .ok_or_else(|| HttpError::Malformed("missing status".into()))?
                .parse()
                .map_err(|_| HttpError::Malformed("bad status code".into()))?;
            let reason = parts.next().unwrap_or("").to_string();
            let headers = parse_headers(lines)?;
            ResponseHead { status, reason, version, headers }
        };
        self.buf.advance(head_end);
        let body = match body_framing(&head.headers, true)? {
            BodyFraming::None => Body::Full(Bytes::new()),
            framing => Body::Stream(framing),
        };
        Ok((head, body))
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

    /// Materialize a [`Body`] into contiguous bytes. For
    /// `Content-Length` bodies the storage is handed over without
    /// copying the payload (only a pipelined remnant, if any, is
    /// copied back into the read buffer).
    pub async fn read_body(&mut self, body: Body) -> Result<Bytes, HttpError> {
        match body {
            Body::Full(bytes) => Ok(bytes),
            Body::Stream(BodyFraming::None) => Ok(Bytes::new()),
            Body::Stream(BodyFraming::Length(len)) => {
                if len > self.buf.len() {
                    self.buf.reserve(len - self.buf.len());
                }
                self.fill_to(len).await?;
                Ok(self.buf.freeze_to(len))
            }
            Body::Stream(BodyFraming::Chunked) => self.read_chunked_body().await,
            Body::Stream(BodyFraming::Eof) => {
                loop {
                    if self.buf.len() > MAX_BODY_BYTES {
                        return Err(HttpError::BodyTooLarge);
                    }
                    let n = self.io.read_buf(&mut self.buf).await?;
                    if n == 0 {
                        break;
                    }
                }
                let len = self.buf.len();
                Ok(self.buf.freeze_to(len))
            }
        }
    }

    /// Drive a [`Body`] into `sink` without materializing it: decoded
    /// body bytes are written as they arrive, starting with the parse
    /// remnant. Returns the number of decoded bytes forwarded. The
    /// sink is not flushed.
    pub async fn pipe_body<W: AsyncWrite + Unpin>(
        &mut self,
        body: Body,
        sink: &mut W,
    ) -> Result<u64, HttpError> {
        match body {
            Body::Full(bytes) => {
                sink.write_all(&bytes).await?;
                Ok(bytes.len() as u64)
            }
            Body::Stream(BodyFraming::None) => Ok(0),
            Body::Stream(BodyFraming::Length(len)) => {
                self.pipe_exact(len, sink).await?;
                Ok(len as u64)
            }
            Body::Stream(BodyFraming::Chunked) => {
                let mut total: u64 = 0;
                loop {
                    let size = self.read_chunk_size_line().await?;
                    if total.saturating_add(size as u64) > MAX_BODY_BYTES as u64 {
                        return Err(HttpError::BodyTooLarge);
                    }
                    if size == 0 {
                        self.consume_trailers().await?;
                        return Ok(total);
                    }
                    self.pipe_exact(size, sink).await?;
                    self.consume_chunk_crlf().await?;
                    total += size as u64;
                }
            }
            Body::Stream(BodyFraming::Eof) => {
                let mut total: u64 = 0;
                loop {
                    if self.buf.is_empty() {
                        let n = self.io.read_buf(&mut self.buf).await?;
                        if n == 0 {
                            return Ok(total);
                        }
                    }
                    let k = self.buf.len();
                    sink.write_all(&self.buf[..k]).await?;
                    self.buf.advance(k);
                    total += k as u64;
                    if total > MAX_BODY_BYTES as u64 {
                        return Err(HttpError::BodyTooLarge);
                    }
                }
            }
        }
    }

    /// Forward exactly `len` raw bytes from buffer + transport into
    /// `sink`, bounded by the read window (never the full body).
    async fn pipe_exact<W: AsyncWrite + Unpin>(
        &mut self,
        len: usize,
        sink: &mut W,
    ) -> Result<(), HttpError> {
        let mut remaining = len;
        while remaining > 0 {
            if self.buf.is_empty() {
                let n = self.io.read_buf(&mut self.buf).await?;
                if n == 0 {
                    return Err(HttpError::UnexpectedEof);
                }
            }
            let k = remaining.min(self.buf.len());
            sink.write_all(&self.buf[..k]).await?;
            self.buf.advance(k);
            remaining -= k;
        }
        Ok(())
    }

    /// Serialize and send a request (Content-Length is set from the
    /// body). Head and body leave in one gather-write.
    pub async fn write_request(&mut self, req: &Request) -> Result<(), HttpError> {
        self.head_buf.clear();
        let _ = write!(self.head_buf, "{} {} {}\r\n", req.method, req.target, req.version);
        append_headers(&mut self.head_buf, &req.headers, req.body.len());
        write_all_vectored(&mut self.io, &self.head_buf, &req.body).await?;
        self.io.flush().await?;
        Ok(())
    }

    /// Serialize and send a response. Head and body leave in one
    /// gather-write.
    pub async fn write_response(&mut self, resp: &Response) -> Result<(), HttpError> {
        self.head_buf.clear();
        let _ = write!(self.head_buf, "{} {} {}\r\n", resp.version, resp.status, resp.reason);
        append_headers(&mut self.head_buf, &resp.headers, resp.body.len());
        write_all_vectored(&mut self.io, &self.head_buf, &resp.body).await?;
        self.io.flush().await?;
        Ok(())
    }

    /// Serialize and send a request head whose body will follow with
    /// the given framing (relay use; does not flush).
    pub async fn write_request_head(
        &mut self,
        head: &RequestHead,
        framing: BodyFraming,
    ) -> Result<(), HttpError> {
        self.head_buf.clear();
        let _ = write!(self.head_buf, "{} {} {}\r\n", head.method, head.target, head.version);
        append_framed_headers(&mut self.head_buf, &head.headers, framing);
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
        self.head_buf.clear();
        let _ = write!(self.head_buf, "{} {} {}\r\n", head.version, head.status, head.reason);
        append_framed_headers(&mut self.head_buf, &head.headers, framing);
        self.io.write_all(&self.head_buf).await?;
        Ok(())
    }

    /// Fill the buffer until a complete header block is present.
    /// Returns the offset just past `\r\n\r\n`, or `None` on clean EOF
    /// with an empty buffer. Each pass scans only the new bytes plus a
    /// 3-byte overlap, so a large head is examined once, not O(n²).
    async fn fill_until_headers(&mut self) -> Result<Option<usize>, HttpError> {
        let mut scanned = 0;
        loop {
            if let Some(pos) = find_from(&self.buf, scanned, b"\r\n\r\n") {
                return Ok(Some(pos + 4));
            }
            scanned = self.buf.len();
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(HttpError::HeadersTooLarge);
            }
            let n = self.io.read_buf(&mut self.buf).await?;
            if n == 0 {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::UnexpectedEof);
            }
        }
    }

    /// Read exactly `n` more bytes into the buffer (beyond current len).
    async fn fill_to(&mut self, n: usize) -> Result<(), HttpError> {
        while self.buf.len() < n {
            let read = self.io.read_buf(&mut self.buf).await?;
            if read == 0 {
                return Err(HttpError::UnexpectedEof);
            }
        }
        Ok(())
    }

    /// Fill the buffer until it starts with a CRLF-terminated line and
    /// return the line's length (without the CRLF). Chunk-size and
    /// trailer lines are bounded like heads: a line longer than
    /// [`MAX_HEADER_BYTES`] is refused instead of buffered.
    async fn fill_line(&mut self) -> Result<usize, HttpError> {
        let mut scanned = 0;
        loop {
            if let Some(pos) = find_from(&self.buf, scanned, b"\r\n") {
                if pos > MAX_HEADER_BYTES {
                    return Err(HttpError::HeadersTooLarge);
                }
                return Ok(pos);
            }
            scanned = self.buf.len();
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(HttpError::HeadersTooLarge);
            }
            let n = self.io.read_buf(&mut self.buf).await?;
            if n == 0 {
                return Err(HttpError::UnexpectedEof);
            }
        }
    }

    /// Read and consume one chunk size line, returning the size.
    async fn read_chunk_size_line(&mut self) -> Result<usize, HttpError> {
        let line_end = self.fill_line().await?;
        let size = {
            let size_text = std::str::from_utf8(&self.buf[..line_end])
                .map_err(|_| HttpError::Malformed("bad chunk size".into()))?;
            let size_text = size_text.split(';').next().unwrap_or("").trim();
            usize::from_str_radix(size_text, 16)
                .map_err(|_| HttpError::Malformed(format!("bad chunk size {size_text:?}")))?
        };
        self.buf.advance(line_end + 2);
        Ok(size)
    }

    /// Consume the CRLF that terminates a chunk payload.
    async fn consume_chunk_crlf(&mut self) -> Result<(), HttpError> {
        self.fill_to(2).await?;
        if &self.buf[..2] != b"\r\n" {
            return Err(HttpError::Malformed("missing chunk CRLF".into()));
        }
        self.buf.advance(2);
        Ok(())
    }

    /// Consume (and ignore) trailers after the final zero chunk, up to
    /// and including the blank line.
    async fn consume_trailers(&mut self) -> Result<(), HttpError> {
        loop {
            let pos = self.fill_line().await?;
            self.buf.advance(pos + 2);
            if pos == 0 {
                return Ok(());
            }
        }
    }

    async fn read_chunked_body(&mut self) -> Result<Bytes, HttpError> {
        let mut body = BytesMut::new();
        loop {
            let size = self.read_chunk_size_line().await?;
            if body.len().saturating_add(size) > MAX_BODY_BYTES {
                return Err(HttpError::BodyTooLarge);
            }
            if size == 0 {
                self.consume_trailers().await?;
                return Ok(body.freeze());
            }
            self.fill_to(size + 2).await?;
            body.reserve(size);
            body.extend_from_slice(&self.buf[..size]);
            self.buf.advance(size);
            self.consume_chunk_crlf().await?;
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

fn append_headers(head: &mut BytesMut, headers: &Headers, body_len: usize) {
    let mut wrote_len = false;
    for (name, value) in headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            wrote_len = true;
            let _ = write!(head, "Content-Length: {body_len}\r\n");
        } else {
            let _ = write!(head, "{name}: {value}\r\n");
        }
    }
    if !wrote_len && body_len > 0 {
        let _ = write!(head, "Content-Length: {body_len}\r\n");
    }
    head.extend_from_slice(b"\r\n");
}

/// Serialize headers for a head whose body follows with `framing`.
/// `Length` rewrites/installs `Content-Length` (and drops any stale
/// `Transfer-Encoding`, since the body is re-framed); `Chunked`/`Eof`
/// pass the headers through verbatim.
fn append_framed_headers(head: &mut BytesMut, headers: &Headers, framing: BodyFraming) {
    match framing {
        BodyFraming::None => append_headers(head, headers, 0),
        BodyFraming::Length(len) => {
            let mut wrote_len = false;
            for (name, value) in headers.iter() {
                if name.eq_ignore_ascii_case("content-length") {
                    wrote_len = true;
                    let _ = write!(head, "Content-Length: {len}\r\n");
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    continue;
                } else {
                    let _ = write!(head, "{name}: {value}\r\n");
                }
            }
            if !wrote_len {
                let _ = write!(head, "Content-Length: {len}\r\n");
            }
            head.extend_from_slice(b"\r\n");
        }
        BodyFraming::Chunked | BodyFraming::Eof => {
            for (name, value) in headers.iter() {
                let _ = write!(head, "{name}: {value}\r\n");
            }
            head.extend_from_slice(b"\r\n");
        }
    }
}

/// Write the whole of `head` then `body`, using gather-writes so both
/// land in the transport in one wakeup when it has room.
async fn write_all_vectored<W: AsyncWrite + Unpin>(
    io: &mut W,
    mut head: &[u8],
    mut body: &[u8],
) -> Result<(), HttpError> {
    while !head.is_empty() || !body.is_empty() {
        let n = if head.is_empty() {
            io.write(body).await?
        } else if body.is_empty() {
            io.write(head).await?
        } else {
            io.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]).await?
        };
        if n == 0 {
            return Err(HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "wrote zero bytes of a non-empty message",
            )));
        }
        let from_head = n.min(head.len());
        head = &head[from_head..];
        body = &body[n - from_head..];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
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
    async fn chunked_response_decoded() {
        let (mut client, server) = tokio::io::duplex(1024);
        client
            .write_all(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n",
            )
            .await
            .unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        let resp = s.read_response().await.unwrap();
        assert_eq!(&resp.body[..], b"Wikipedia");
    }

    #[tokio::test]
    async fn chunked_with_extension_and_trailer() {
        let (mut client, server) = tokio::io::duplex(1024);
        client
            .write_all(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\nX-T: v\r\n\r\n",
            )
            .await
            .unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        let resp = s.read_response().await.unwrap();
        assert_eq!(&resp.body[..], b"abc");
    }

    /// Decode `chunks` as a chunked response body twice: materialized
    /// by `read_body`, then streamed by `pipe_body`.
    async fn decode_chunked_both_ways(chunks: &[u8]) -> Vec<Result<Vec<u8>, HttpError>> {
        let mut msg = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        msg.extend_from_slice(chunks);
        let mut results = Vec::new();
        for pipe in [false, true] {
            let (mut client, server) = tokio::io::duplex(256 * 1024);
            client.write_all(&msg).await.unwrap();
            drop(client);
            let mut s = HttpStream::new(server);
            let (_, body) = s.read_response_head().await.unwrap();
            results.push(if pipe {
                let mut sink = Vec::new();
                s.pipe_body(body, &mut sink).await.map(|_| sink)
            } else {
                s.read_body(body).await.map(|b| b.to_vec())
            });
        }
        results
    }

    #[tokio::test]
    async fn huge_chunk_size_is_body_too_large() {
        // The second size line would overflow `received + size`.
        for got in decode_chunked_both_ways(b"1\r\na\r\nffffffffffffffff\r\nxyz").await {
            assert!(matches!(got, Err(HttpError::BodyTooLarge)), "{got:?}");
        }
    }

    #[tokio::test]
    async fn overlong_chunk_lines_are_refused() {
        let mut size_line = vec![b'0'; 70 * 1024];
        size_line.extend_from_slice(b"1\r\na\r\n0\r\n\r\n");
        let mut trailer = b"1\r\na\r\n0\r\nX-T: ".to_vec();
        trailer.extend(std::iter::repeat_n(b'v', 70 * 1024));
        trailer.extend_from_slice(b"\r\n\r\n");
        for chunks in [size_line, trailer] {
            for got in decode_chunked_both_ways(&chunks).await {
                assert!(matches!(got, Err(HttpError::HeadersTooLarge)), "{got:?}");
            }
        }
        // Leading zeros within the limit still parse.
        for got in decode_chunked_both_ways(b"0001\r\na\r\n0\r\n\r\n").await {
            assert_eq!(got.unwrap(), b"a");
        }
    }

    #[tokio::test]
    async fn close_delimited_body() {
        let (mut client, server) = tokio::io::duplex(1024);
        client
            .write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nstream-until-eof")
            .await
            .unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        let resp = s.read_response().await.unwrap();
        assert_eq!(&resp.body[..], b"stream-until-eof");
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
    async fn length_body_is_zero_copy_from_read_buffer() {
        let (mut client, server) = tokio::io::duplex(64 * 1024);
        let payload = vec![5u8; 10_000];
        let mut msg = b"HTTP/1.1 200 OK\r\nContent-Length: 10000\r\n\r\n".to_vec();
        msg.extend_from_slice(&payload);
        client.write_all(&msg).await.unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        let resp = s.read_response().await.unwrap();
        assert_eq!(&resp.body[..], &payload[..]);
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
    async fn streamed_chunked_body_decodes_and_counts() {
        let (mut client, server) = tokio::io::duplex(1024);
        client
            .write_all(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\nX-T: v\r\n\r\n",
            )
            .await
            .unwrap();
        drop(client);
        let mut s = HttpStream::new(server);
        let (_, body) = s.read_response_head().await.unwrap();
        let mut sink = Vec::new();
        let piped = s.pipe_body(body, &mut sink).await.unwrap();
        assert_eq!(piped, 9);
        assert_eq!(sink, b"Wikipedia");
    }

    #[tokio::test]
    async fn relay_heads_reframe_chunked_to_length() {
        // A chunked upstream body materialized by a relay goes back out
        // Content-Length framed, with the stale TE header dropped.
        let head = ResponseHead {
            status: 200,
            reason: "OK".into(),
            version: "HTTP/1.1".into(),
            headers: {
                let mut h = Headers::new();
                h.set("Transfer-Encoding", "chunked");
                h.set("Content-Type", "video/mp2t");
                h
            },
        };
        let (client, server) = tokio::io::duplex(4096);
        let mut c = HttpStream::new(client);
        c.write_response_head(&head, BodyFraming::Length(3)).await.unwrap();
        c.get_mut().write_all(b"abc").await.unwrap();
        c.flush().await.unwrap();
        drop(c);
        let mut s = HttpStream::new(server);
        let resp = s.read_response().await.unwrap();
        assert_eq!(resp.headers.get("transfer-encoding"), None);
        assert_eq!(resp.headers.content_length(), Some(3));
        assert_eq!(&resp.body[..], b"abc");
    }

    #[tokio::test]
    async fn pipelined_messages_survive_body_handoff() {
        // Two responses written back to back: freezing the first body
        // must leave the second message's bytes in the buffer.
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
}
