//! Token-bucket throttling for async streams.
//!
//! [`ThrottledStream`] caps the read and write rates of any
//! `AsyncRead + AsyncWrite` transport. It is the prototype's stand-in
//! for the real access links: the client wraps its origin connections
//! with the ADSL profile, each device proxy wraps its upstream
//! connection with its 3G profile.
//!
//! A bucket can also be **shared**: [`SharedRateLimit`] is a cloneable
//! handle to one token bucket, so several streams drawing from the
//! same physical medium (all connections crossing one home's Wi-Fi,
//! both directions of one ADSL line) contend for the same tokens, the
//! way they would on the real link.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{ready, Context, Poll};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use tokio::io::{AsyncRead, AsyncWrite, ReadBuf};
use tokio::time::{sleep_until, Instant, Sleep};

/// A direction's rate limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained rate, bits per second.
    pub rate_bps: f64,
    /// Bucket depth (burst), bytes.
    pub burst_bytes: f64,
}

impl RateLimit {
    /// A limit with a default burst of 16 KiB or 50 ms of data,
    /// whichever is larger.
    pub fn new(rate_bps: f64) -> RateLimit {
        assert!(rate_bps > 0.0);
        let burst = (rate_bps / 8.0 * 0.05).max(16.0 * 1024.0);
        RateLimit { rate_bps, burst_bytes: burst }
    }

    /// Effectively unlimited.
    pub fn unlimited() -> RateLimit {
        RateLimit { rate_bps: f64::MAX / 8.0, burst_bytes: f64::MAX / 8.0 }
    }
}

/// A cloneable handle to one token bucket. Every clone draws from the
/// same token balance, modeling a shared medium: give each stream that
/// crosses a home's Wi-Fi a clone of the home's bucket and their
/// aggregate rate — not each individual rate — is capped.
#[derive(Debug, Clone)]
pub struct SharedRateLimit {
    bucket: Arc<Mutex<Bucket>>,
}

impl SharedRateLimit {
    /// A shared bucket sustaining `bps` bits per second with the
    /// default burst (see [`RateLimit::new`]). Together with
    /// [`SharedRateLimit::unlimited`] this is the whole constructor
    /// surface — a limit with a custom burst converts via
    /// `From<RateLimit>`.
    pub fn from_bps(bps: u64) -> SharedRateLimit {
        SharedRateLimit::from(RateLimit::new(bps as f64))
    }

    /// A shared bucket that never throttles.
    pub fn unlimited() -> SharedRateLimit {
        SharedRateLimit::from(RateLimit::unlimited())
    }

    fn available(&self) -> usize {
        self.bucket.lock().available()
    }

    fn consume(&self, bytes: usize) {
        self.bucket.lock().consume(bytes);
    }

    fn ready_at(&self, bytes: usize) -> Instant {
        self.bucket.lock().ready_at(bytes)
    }

    /// Fire-time re-check for a dry-bucket wait (see
    /// [`ThrottleWait`]): `None` when at least `need` bytes are now
    /// available (wake the waiter), otherwise the re-arm deadline.
    /// Runs the same `available()`-then-`ready_at()` arithmetic the
    /// woken stream would run at this same virtual instant.
    fn gate_check(&self, need: usize) -> Option<Instant> {
        let mut bucket = self.bucket.lock();
        if bucket.available() >= need {
            None
        } else {
            Some(bucket.ready_at(need))
        }
    }

    /// This bucket's scheduling quantum: [`QUANTUM`] capped at the
    /// bucket depth. A dry wait must never target more tokens than the
    /// bucket can hold, or it would sleep forever; shallow buckets
    /// simply schedule at their full depth.
    fn scheduling_quantum(&self) -> usize {
        let bucket = self.bucket.lock();
        (bucket.limit.burst_bytes.min(QUANTUM as f64) as usize).max(1)
    }
}

impl From<RateLimit> for SharedRateLimit {
    /// Wrap a fully specified limit (custom burst included) in a fresh
    /// shared bucket.
    fn from(limit: RateLimit) -> SharedRateLimit {
        SharedRateLimit { bucket: Arc::new(Mutex::new(Bucket::new(limit))) }
    }
}

#[derive(Debug)]
struct Bucket {
    limit: RateLimit,
    tokens: f64,
    last_refill: Instant,
}

impl Bucket {
    fn new(limit: RateLimit) -> Bucket {
        Bucket { limit, tokens: limit.burst_bytes, last_refill: Instant::now() }
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.saturating_duration_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.limit.rate_bps / 8.0).min(self.limit.burst_bytes);
        self.last_refill = now;
    }

    /// Bytes that may pass now (0 if the bucket is dry).
    fn available(&mut self) -> usize {
        self.refill(Instant::now());
        self.tokens.max(0.0) as usize
    }

    fn consume(&mut self, bytes: usize) {
        self.tokens -= bytes as f64;
    }

    /// Instant at which at least `bytes` tokens will be available.
    ///
    /// Never earlier than 1 ms past the last refill: `available()`
    /// truncates the float balance, so the deficit can be a fraction
    /// of a byte whose drain time rounds to zero — an already-expired
    /// sleep would make `poll_read` spin without yielding.
    fn ready_at(&self, bytes: usize) -> Instant {
        let deficit = (bytes as f64 - self.tokens).max(0.0);
        let secs = deficit / (self.limit.rate_bps / 8.0);
        self.last_refill + Duration::from_secs_f64(secs.clamp(1e-3, 3600.0))
    }
}

/// Scheduling quantum, bytes: how many tokens a dry stream waits for
/// before it wakes and moves data. Waking for single bytes would
/// thrash the timer wheel; waking per KiB costs one full task poll
/// cycle per KiB transferred, which dominates fleet-scale runs.
///
/// Coarsening the quantum does **not** change modeled transfer times:
/// a stream always consumes *all* available tokens when it runs, and a
/// wait's deadline is the exact fluid-model instant the bucket covers
/// the deficit — so each transfer's completion instant is a function
/// of the token integral, not of the wake granularity. Only the
/// intra-transfer arrival pattern coarsens (16 KiB bursts instead of
/// 1 KiB). Buckets shallower than a quantum schedule at their full
/// depth instead (see [`SharedRateLimit::scheduling_quantum`]).
const QUANTUM: usize = 16 * 1024;

/// One direction's dry-bucket wait: a single `Sleep` created on the
/// first wait and **reset in place** for every wait after it. A busy
/// throttled stream waits once per quantum for its whole life — the
/// old `Option<Pin<Box<Sleep>>>` slot allocated a boxed timer for each
/// of those waits; this allocates once (the timer entry inside the
/// `Sleep`) and re-arms it, which is why the vendored `Sleep` grew
/// `reset` in the first place.
#[derive(Debug, Default)]
struct ThrottleWait {
    sleep: Option<Sleep>,
    /// True while a wait is armed and not yet observed `Ready`. The
    /// `Sleep` itself can't answer this: after a wait completes it
    /// stays elapsed until the next `arm` re-arms it.
    armed: bool,
    /// The byte count the current wait is for, read by the sleep's
    /// fire-time gate (shared because the gate closure lives inside
    /// the timer entry).
    want: Arc<AtomicUsize>,
}

impl ThrottleWait {
    /// Arm (or re-arm) the wait until `bucket` can cover `want` bytes.
    ///
    /// The sleep carries a fire-time gate ([`Sleep::gate`]): when the
    /// deadline arrives, the runtime re-checks the bucket *in the
    /// timer dispatch path* and silently re-arms if the tokens were
    /// consumed by a sibling stream in the meantime. Contending
    /// streams on one shared medium would otherwise stampede — every
    /// refill waking every waiter, one of them progressing, the rest
    /// paying a full task poll just to re-arm.
    fn arm(&mut self, bucket: &SharedRateLimit, want: usize) {
        let at = bucket.ready_at(want);
        self.want.store(want, Ordering::Relaxed);
        match &mut self.sleep {
            Some(sleep) => sleep.reset(at),
            None => {
                let mut sleep = sleep_until(at);
                let gate_bucket = bucket.clone();
                let gate_want = Arc::clone(&self.want);
                sleep.gate(move || gate_bucket.gate_check(gate_want.load(Ordering::Relaxed)));
                self.sleep = Some(sleep);
            }
        }
        self.armed = true;
    }

    /// Wait out the armed sleep; immediately `Ready` when disarmed.
    fn poll_wait(&mut self, cx: &mut Context<'_>) -> Poll<()> {
        if !self.armed {
            return Poll::Ready(());
        }
        let sleep = self.sleep.as_mut().expect("armed ThrottleWait without a Sleep");
        match Pin::new(sleep).poll(cx) {
            Poll::Ready(()) => {
                self.armed = false;
                Poll::Ready(())
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

/// One direction of a [`ThrottledStream`]: its bucket, its dry-bucket
/// wait and its scheduling quantum.
#[derive(Debug)]
struct Direction {
    bucket: SharedRateLimit,
    wait: ThrottleWait,
    /// Cached [`SharedRateLimit::scheduling_quantum`] — bucket depth
    /// never changes after construction, so this is computed once
    /// instead of locking the bucket every poll.
    quantum: usize,
}

impl Direction {
    fn new(bucket: SharedRateLimit) -> Direction {
        let quantum = bucket.scheduling_quantum();
        Direction { bucket, wait: ThrottleWait::default(), quantum }
    }

    /// The direction's one token wait: wait until the bucket covers
    /// `min(len, quantum)` bytes (at least 1), then return how many of
    /// the `len` bytes may pass now. The caller moves at most that many
    /// and then draws what actually moved ([`Direction::draw`]).
    fn poll_tokens(&mut self, cx: &mut Context<'_>, len: usize) -> Poll<usize> {
        let want = self.quantum.min(len).max(1);
        loop {
            if self.wait.poll_wait(cx).is_pending() {
                return Poll::Pending;
            }
            let available = self.bucket.available();
            if available >= want {
                return Poll::Ready(available.min(len));
            }
            self.wait.arm(&self.bucket, want);
        }
    }

    /// Draw the `moved` bytes that actually passed from the bucket;
    /// returns `moved`.
    fn draw(&self, moved: usize) -> usize {
        self.bucket.consume(moved);
        moved
    }
}

/// A rate-limited wrapper around an async transport. The read and
/// write buckets are shared handles, so independent streams can be
/// made to contend for one medium (see [`SharedRateLimit`]); the plain
/// constructors create private buckets and behave like before.
#[derive(Debug)]
pub struct ThrottledStream<T> {
    inner: T,
    read: Direction,
    write: Direction,
}

impl<T> ThrottledStream<T> {
    /// Wrap `inner` with independent, private read/write limits.
    pub fn new(inner: T, read: RateLimit, write: RateLimit) -> ThrottledStream<T> {
        ThrottledStream::with_shared(inner, read.into(), write.into())
    }

    /// Wrap `inner` drawing read and write tokens from shared buckets.
    pub fn with_shared(
        inner: T,
        read: SharedRateLimit,
        write: SharedRateLimit,
    ) -> ThrottledStream<T> {
        ThrottledStream { inner, read: Direction::new(read), write: Direction::new(write) }
    }
}

impl<T: AsyncRead + Unpin> AsyncRead for ThrottledStream<T> {
    fn poll_read(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let this = self.get_mut();
        let allowed = ready!(this.read.poll_tokens(cx, buf.remaining()));
        let mut limited = buf.take(allowed);
        let polled = Pin::new(&mut this.inner).poll_read(cx, &mut limited);
        if let Poll::Ready(Ok(())) = polled {
            // `take` borrows the same backing buffer, so only the
            // original's cursor needs to advance.
            let n = limited.filled().len();
            buf.advance(n);
            this.read.draw(n);
        }
        polled
    }

    /// The same token wait as [`poll_read`](Self::poll_read) for a
    /// `max`-byte read, then a shared read capped at what the tokens
    /// allow.
    fn poll_read_shared(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> Poll<std::io::Result<usize>> {
        let this = self.get_mut();
        let allowed = ready!(this.read.poll_tokens(cx, max));
        Pin::new(&mut this.inner).poll_read_shared(cx, allowed, out).map_ok(|n| this.read.draw(n))
    }
}

impl<T: AsyncWrite + Unpin> AsyncWrite for ThrottledStream<T> {
    fn poll_write(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        data: &[u8],
    ) -> Poll<std::io::Result<usize>> {
        let this = self.get_mut();
        let allowed = ready!(this.write.poll_tokens(cx, data.len()));
        Pin::new(&mut this.inner).poll_write(cx, &data[..allowed]).map_ok(|n| this.write.draw(n))
    }

    /// One token wait for the whole gather-write, capped as a whole:
    /// when the tokens cover less than `head` + `body`, the write takes
    /// the head first and then a view of the body's front, so a head +
    /// body pair drains the bucket at the configured rate.
    fn poll_write_shared(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        head: &[u8],
        body: &Bytes,
    ) -> Poll<std::io::Result<usize>> {
        let this = self.get_mut();
        let total = head.len() + body.len();
        if total == 0 {
            return Pin::new(&mut this.inner).poll_write_shared(cx, head, body);
        }
        let allowed = ready!(this.write.poll_tokens(cx, total));
        let head = &head[..allowed.min(head.len())];
        let capped;
        let body = if allowed >= total {
            body
        } else {
            capped = body.slice(..allowed - head.len());
            &capped
        };
        Pin::new(&mut this.inner).poll_write_shared(cx, head, body).map_ok(|n| this.write.draw(n))
    }

    fn poll_flush(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.get_mut().inner).poll_flush(cx)
    }

    fn poll_shutdown(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.get_mut().inner).poll_shutdown(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokio::io::{AsyncReadExt, AsyncWriteExt};

    #[tokio::test]
    async fn read_rate_is_enforced() {
        let (mut tx, rx) = tokio::io::duplex(1024 * 1024);
        // 800 kbit/s = 100 kB/s.
        let mut throttled = ThrottledStream::new(
            rx,
            RateLimit { rate_bps: 800_000.0, burst_bytes: 16.0 * 1024.0 },
            RateLimit::unlimited(),
        );
        let payload = vec![1u8; 100_000];
        tokio::spawn(async move {
            tx.write_all(&payload).await.unwrap();
        });
        let start = tokio::time::Instant::now();
        let mut buf = vec![0u8; 100_000];
        throttled.read_exact(&mut buf).await.unwrap();
        let secs = start.elapsed().as_secs_f64();
        // 100 kB minus 16 kB burst at 100 kB/s ≈ 0.84 s.
        assert!(secs > 0.6 && secs < 1.6, "took {secs}");
    }

    #[tokio::test]
    async fn write_rate_is_enforced() {
        let (tx, mut rx) = tokio::io::duplex(1024 * 1024);
        let mut throttled = ThrottledStream::new(
            tx,
            RateLimit::unlimited(),
            RateLimit { rate_bps: 1_600_000.0, burst_bytes: 16.0 * 1024.0 },
        );
        let reader = tokio::spawn(async move {
            let mut buf = vec![0u8; 100_000];
            rx.read_exact(&mut buf).await.unwrap();
        });
        let start = tokio::time::Instant::now();
        throttled.write_all(&vec![2u8; 100_000]).await.unwrap();
        throttled.flush().await.unwrap();
        reader.await.unwrap();
        let secs = start.elapsed().as_secs_f64();
        // 100 kB minus burst at 200 kB/s ≈ 0.42 s.
        assert!(secs > 0.3 && secs < 1.0, "took {secs}");
    }

    #[tokio::test]
    async fn unlimited_is_fast() {
        let (mut tx, rx) = tokio::io::duplex(1024 * 1024);
        let mut throttled =
            ThrottledStream::new(rx, RateLimit::unlimited(), RateLimit::unlimited());
        tokio::spawn(async move {
            tx.write_all(&vec![3u8; 500_000]).await.unwrap();
        });
        let start = tokio::time::Instant::now();
        let mut buf = vec![0u8; 500_000];
        throttled.read_exact(&mut buf).await.unwrap();
        assert!(start.elapsed().as_secs_f64() < 0.5);
    }

    #[tokio::test]
    async fn burst_passes_immediately() {
        let (mut tx, rx) = tokio::io::duplex(1024 * 1024);
        let mut throttled = ThrottledStream::new(
            rx,
            RateLimit { rate_bps: 80_000.0, burst_bytes: 64.0 * 1024.0 },
            RateLimit::unlimited(),
        );
        tokio::spawn(async move {
            tx.write_all(&vec![4u8; 32 * 1024]).await.unwrap();
        });
        let start = tokio::time::Instant::now();
        let mut buf = vec![0u8; 32 * 1024];
        throttled.read_exact(&mut buf).await.unwrap();
        // Fits within the burst: no throttling delay.
        assert!(start.elapsed().as_secs_f64() < 0.2);
    }

    #[tokio::test]
    async fn shared_bucket_halves_per_stream_rate() {
        // Two streams drawing from one 100 kB/s bucket: 50 kB each
        // takes ~1 s in aggregate, vs ~0.5 s if the buckets were
        // private. The assertion window distinguishes the two.
        let medium = SharedRateLimit::from(RateLimit { rate_bps: 800_000.0, burst_bytes: 1024.0 });
        let mut handles = Vec::new();
        let start = tokio::time::Instant::now();
        for _ in 0..2 {
            let (mut tx, rx) = tokio::io::duplex(1024 * 1024);
            let mut throttled =
                ThrottledStream::with_shared(rx, medium.clone(), SharedRateLimit::unlimited());
            handles.push(tokio::spawn(async move {
                tokio::spawn(async move {
                    tx.write_all(&vec![9u8; 50_000]).await.unwrap();
                });
                let mut buf = vec![0u8; 50_000];
                throttled.read_exact(&mut buf).await.unwrap();
            }));
        }
        for h in handles {
            h.await.unwrap();
        }
        let secs = start.elapsed().as_secs_f64();
        // 100 kB total at 100 kB/s ≈ 1 s; private buckets would finish
        // in ≈ 0.5 s.
        assert!(secs > 0.8 && secs < 1.6, "took {secs}");
    }

    #[test]
    fn rate_limit_constructor() {
        let r = RateLimit::new(8e6); // 1 MB/s -> 50 ms burst = 50 kB
        assert_eq!(r.rate_bps, 8e6);
        assert!((r.burst_bytes - 50_000.0).abs() < 1.0);
        let slow = RateLimit::new(8_000.0);
        assert_eq!(slow.burst_bytes, 16.0 * 1024.0); // floor
    }
}
