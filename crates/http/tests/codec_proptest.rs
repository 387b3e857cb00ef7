//! Property tests for the HTTP codec: arbitrary header sets and
//! `Content-Length` bodies, delivered through adversarial read
//! boundaries, must decode to byte-identical bodies through both the
//! buffered path (`read_response`) and the streaming path
//! (`read_response_head` + `read_body` / `pipe_body`), and a head that
//! declares any other framing must be refused however it arrives.
//!
//! The read boundaries are the point: the incremental head scan and
//! the body pipe both keep cursors across partial reads, so the
//! encoder's output is chopped into scripted fragments — down to
//! single bytes — that deliberately split the `\r\n\r\n` terminator
//! and the header lines. The same cuts are served once as copied bytes
//! and once with the body as views of the writer's buffer, as a pipe
//! serves a body written by reference.

use std::ops::Range;
use std::pin::Pin;
use std::task::{Context, Poll};

use proptest::prelude::*;

use bytes::Bytes;
use threegol_http::codec::{Body, BodyFraming, HttpStream};
use threegol_http::{HttpError, MAX_HEADER_BYTES};
use tokio::io::{AsyncRead, AsyncWrite, ReadBuf};

/// Serves scripted bytes with scripted read-boundary sizes, then EOF.
/// A plain read copies its bytes; a shared read serves the bytes in
/// `shared` as views of the one `Bytes` it serves from, and the rest
/// as copied bytes, under the same cuts. The write half discards (the
/// decoder under test never writes).
struct ChoppedIo {
    data: Bytes,
    shared: Range<usize>,
    pos: usize,
    cuts: Vec<usize>,
    next_cut: usize,
}

impl ChoppedIo {
    fn new(data: impl Into<Bytes>, cuts: Vec<usize>) -> ChoppedIo {
        ChoppedIo { data: data.into(), shared: 0..0, pos: 0, cuts, next_cut: 0 }
    }

    /// Serve the bytes in `shared` by reference to shared reads.
    fn sharing(self, shared: Range<usize>) -> ChoppedIo {
        ChoppedIo { shared, ..self }
    }

    /// The bytes of the next read: up to the next cut, at most `max`.
    fn next_read(&mut self, max: usize) -> Range<usize> {
        let cut = self.cuts[self.next_cut % self.cuts.len()].max(1);
        self.next_cut += 1;
        let end = self.pos + cut.min(self.data.len() - self.pos).min(max);
        let read = self.pos..end;
        self.pos = end;
        read
    }
}

impl AsyncRead for ChoppedIo {
    fn poll_read(
        mut self: Pin<&mut Self>,
        _cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let this = &mut *self;
        if this.pos < this.data.len() {
            let read = this.next_read(buf.remaining());
            buf.put_slice(&this.data[read]);
        }
        Poll::Ready(Ok(())) // nothing put: EOF
    }

    fn poll_read_shared(
        mut self: Pin<&mut Self>,
        _cx: &mut Context<'_>,
        max: usize,
        copied: &mut Vec<u8>,
        out: &mut Vec<Bytes>,
    ) -> Poll<std::io::Result<usize>> {
        let this = &mut *self;
        if this.pos >= this.data.len() {
            return Poll::Ready(Ok(0)); // EOF
        }
        let read = this.next_read(max);
        // Copied bytes before the shared region, views in it, and a
        // fresh view of the copied bytes after it.
        let start = this.shared.start.clamp(read.start, read.end);
        let end = this.shared.end.clamp(read.start, read.end);
        copied.extend_from_slice(&this.data[read.start..start]);
        if start < end {
            out.push(this.data.slice(start..end));
            if end < read.end {
                out.push(Bytes::copy_from_slice(&this.data[end..read.end]));
            }
        } else {
            copied.extend_from_slice(&this.data[end..read.end]);
        }
        Poll::Ready(Ok(read.len()))
    }
}

impl AsyncWrite for ChoppedIo {
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

/// Encode a 200 response carrying `body` with a `Content-Length`.
fn encode(headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    wire.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
    for (name, value) in headers {
        wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    wire.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    wire.extend_from_slice(body);
    wire
}

/// Characters drawn for generated header names (always prefixed with
/// `x` so a name can never be empty or collide with a framing header).
const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";
/// Characters drawn for header values: printable, no spaces, so the
/// parser's whitespace trimming cannot change the value.
const VALUE_CHARS: &[u8] =
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./=!(),*+";

/// `Transfer-Encoding` spellings and values a peer might send.
const TE_NAMES: [&str; 3] = ["Transfer-Encoding", "transfer-encoding", "TRANSFER-ENCODING"];
const TE_VALUES: [&str; 4] = ["chunked", "Chunked", "gzip, chunked", "identity"];

fn pick(charset: &[u8], indices: &[usize]) -> String {
    indices.iter().map(|&i| charset[i % charset.len()] as char).collect()
}

fn header_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0usize..NAME_CHARS.len(), 1..12),
            proptest::collection::vec(0usize..VALUE_CHARS.len(), 1..24),
        ),
        0..6,
    )
    .prop_map(|hs| {
        let mut seen = std::collections::HashSet::new();
        hs.into_iter()
            .map(|(n, v)| (format!("x{}", pick(NAME_CHARS, &n)), pick(VALUE_CHARS, &v)))
            .filter(|(n, _)| seen.insert(n.to_ascii_lowercase()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The buffered reader, the head+`read_body` pair, and the
    /// head+`pipe_body` pair all recover the exact body bytes no
    /// matter where the transport fragments the stream, and leave a
    /// message pipelined right behind the body intact. Bodies run past
    /// 16 KiB, so `read_body` meets both its direct reads of 8 KiB or
    /// more into the body and its short final read, which can pull in
    /// the next message. Each path runs twice under the same cuts:
    /// once with every byte copied, and once with the body served as
    /// views of the wire's buffer, which `read_body` must join into a
    /// view of that buffer.
    #[test]
    fn all_paths_recover_the_exact_body(
        headers in header_strategy(),
        body in proptest::collection::vec(any::<u8>(), 0..20_000),
        next in proptest::collection::vec(any::<u8>(), 0..64),
        cuts in proptest::collection::vec(cut_strategy(), 1..8),
    ) {
        let first = encode(&headers, &body);
        let at = first.len() - body.len();
        let mut wire = first;
        wire.extend_from_slice(&encode(&[], &next));
        let wire = Bytes::from(wire);

        for shared in [0..0, at..at + body.len()] {
            let io = || ChoppedIo::new(wire.clone(), cuts.clone()).sharing(shared.clone());
            // A body served as views comes back as a view of the wire.
            let by_reference = |got: &Bytes| shared.is_empty() || got.as_ptr() == wire[at..].as_ptr();

            // Buffered path.
            let (got, second) = tokio::runtime::block_on(async {
                let mut http = HttpStream::new(io());
                let got = http.read_response().await?;
                Ok::<_, HttpError>((got, http.read_response().await?))
            }).unwrap();
            prop_assert_eq!(got.status, 200);
            prop_assert_eq!(&got.body[..], &body[..]);
            prop_assert!(by_reference(&got.body), "the body was copied ({shared:?})");
            for (name, value) in &headers {
                prop_assert_eq!(got.headers.get(name), Some(value.as_str()));
            }
            prop_assert_eq!(&second.body[..], &next[..]);

            // Streaming path, materialized.
            let (bytes, second) = tokio::runtime::block_on(async {
                let mut http = HttpStream::new(io());
                let (head, b) = http.read_response_head().await?;
                assert_eq!(head.status, 200);
                let framed = matches!(b, Body::Stream(BodyFraming::Length(n)) if n == body.len());
                assert!(framed, "{b:?}");
                let bytes = http.read_body(b).await?;
                Ok::<_, HttpError>((bytes, http.read_response().await?))
            }).unwrap();
            prop_assert_eq!(&bytes[..], &body[..]);
            prop_assert!(by_reference(&bytes), "the body was copied ({shared:?})");
            prop_assert_eq!(&second.body[..], &next[..]);

            // Streaming path, piped into a sink.
            let (piped, count, second) = tokio::runtime::block_on(async {
                let mut http = HttpStream::new(io());
                let (_, b) = http.read_response_head().await?;
                let mut sink: Vec<u8> = Vec::new();
                let n = http.pipe_body(b, &mut sink).await?;
                Ok::<_, HttpError>((sink, n, http.read_response().await?))
            }).unwrap();
            prop_assert_eq!(&piped[..], &body[..]);
            prop_assert_eq!(count, body.len() as u64);
            prop_assert_eq!(&second.body[..], &next[..]);
        }
    }

    /// A `Transfer-Encoding` header is refused wherever it sits in a
    /// request or response head, with or without a `Content-Length`
    /// beside it, however the transport fragments the head.
    #[test]
    fn transfer_encoding_is_refused_anywhere(
        headers in header_strategy(),
        at in 0usize..8,
        te in (0usize..TE_NAMES.len(), 0usize..TE_VALUES.len()),
        request in any::<bool>(),
        with_length in any::<bool>(),
        cuts in proptest::collection::vec(1usize..striped_max(), 1..8),
    ) {
        let mut lines: Vec<String> = headers.iter().map(|(n, v)| format!("{n}: {v}")).collect();
        if with_length {
            lines.push("Content-Length: 5".into());
        }
        lines.insert(at % (lines.len() + 1), format!("{}: {}", TE_NAMES[te.0], TE_VALUES[te.1]));
        let start = if request { "POST /upload HTTP/1.1" } else { "HTTP/1.1 200 OK" };
        let wire = format!("{start}\r\n{}\r\n\r\n5\r\nhello\r\n0\r\n\r\n", lines.join("\r\n"));

        let got = tokio::runtime::block_on(async {
            let mut http = HttpStream::new(ChoppedIo::new(wire.into_bytes(), cuts));
            if request {
                http.read_request_head().await.map(|h| h.map(|(_, body)| body))
            } else {
                http.read_response_head().await.map(|(_, body)| Some(body))
            }
        });
        prop_assert!(matches!(got, Err(HttpError::Malformed(_))), "{got:?}");
    }

    /// A `Content-Length` request survives the same fragmentation on
    /// the server side.
    #[test]
    fn fragmented_request_round_trips(
        body in proptest::collection::vec(any::<u8>(), 0..800),
        cuts in proptest::collection::vec(1usize..striped_max(), 1..6),
    ) {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"POST /upload HTTP/1.1\r\n");
        wire.extend_from_slice(b"Content-Type: application/octet-stream\r\n");
        wire.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
        wire.extend_from_slice(&body);

        let got = tokio::runtime::block_on(async {
            let mut http = HttpStream::new(ChoppedIo::new(wire, cuts));
            http.read_request().await
        }).unwrap().unwrap();
        prop_assert_eq!(got.method, "POST");
        prop_assert_eq!(&got.body[..], &body[..]);
    }
}

/// Upper bound for scripted read sizes: a mix of 1-byte reads and
/// fragments comparable to a header line, so cuts land inside
/// `\r\n\r\n` and the header lines.
fn striped_max() -> usize {
    48
}

/// Scripted read sizes for body tests: mostly [`striped_max`]-bounded
/// fragments, and one in four up to 32 KiB, so a single read can fill a
/// whole read window or run from one message into the next.
fn cut_strategy() -> impl Strategy<Value = usize> {
    (0usize..4, 1usize..striped_max(), 1usize..32 * 1024).prop_map(|(pick, small, large)| {
        if pick == 0 {
            large
        } else {
            small
        }
    })
}

/// A GET head exactly `len` bytes long, its blank line included.
fn get_head(len: usize) -> Vec<u8> {
    let mut head = b"GET /q1/index.m3u8 HTTP/1.1\r\nX-Pad: ".to_vec();
    head.resize(len - 4, b'p');
    head.extend_from_slice(b"\r\n\r\n");
    head
}

/// The head limit is a property of the head, not of how the transport
/// splits it: the same bytes in large reads, in 1 KiB reads and in
/// reads that straddle the limit are accepted up to
/// [`MAX_HEADER_BYTES`] and refused past it.
#[test]
fn head_limit_holds_wherever_the_reads_split() {
    for cuts in [vec![60 * 1024, 64 * 1024], vec![1024], vec![1000]] {
        for (len, fits) in [
            (MAX_HEADER_BYTES - 100, true),
            (MAX_HEADER_BYTES, true),
            (MAX_HEADER_BYTES + 1, false),
            (70 * 1024, false),
        ] {
            let got = tokio::runtime::block_on(async {
                let mut http = HttpStream::new(ChoppedIo::new(get_head(len), cuts.clone()));
                http.read_request().await
            });
            match got {
                Ok(Some(req)) => {
                    assert!(fits, "{len}-byte head accepted under cuts {cuts:?}");
                    assert_eq!(req.target, "/q1/index.m3u8");
                }
                Err(HttpError::HeadersTooLarge) => {
                    assert!(!fits, "{len}-byte head refused under cuts {cuts:?}");
                }
                other => panic!("{len}-byte head under cuts {cuts:?}: {other:?}"),
            }
        }
    }
}
