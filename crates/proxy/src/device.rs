//! The device component: the phone-side HTTP proxy (paper §4.1).
//!
//! "We implement the mobile component as an Android application that
//! includes a basic HTTP proxy to serve the requests coming from the
//! Wi-Fi using the 3G interface." Here the Wi-Fi side is a TCP
//! listener on the home's virtual-network subnet and the 3G interface
//! is a throttled upstream connection. The §6 quota tracker gates
//! discovery: the home's rig ([`crate::Rig::paths`]) announces a device
//! only while `A(t) > 0`.

use std::net::SocketAddr;
use std::sync::Arc;

use parking_lot::Mutex;
use tokio::net::{TcpListener, TcpStream};

use threegol_caps::QuotaTracker;
use threegol_http::codec::{Body, BodyFraming, HttpStream};

use crate::throttle::{RateLimit, ThrottledStream};

/// The phone-side proxy.
pub struct DeviceProxy {
    /// Device name (used in discovery).
    pub name: String,
    upstream: SocketAddr,
    /// Current 3G (down, up) rates. Behind a lock so the scenario
    /// engine can retune them as the simulated hour advances (cell
    /// shares vary diurnally); each new upstream connection snapshots
    /// the rates at connect time, like a phone renegotiating its bearer.
    rates: Mutex<(RateLimit, RateLimit)>,
    quota: Mutex<QuotaTracker>,
}

impl DeviceProxy {
    /// Create a device proxying to `upstream` through a 3G bearer with
    /// the given downlink/uplink rates and a 3GOL allowance.
    pub fn new(
        name: impl Into<String>,
        upstream: SocketAddr,
        g3_down: RateLimit,
        g3_up: RateLimit,
        allowance_bytes: f64,
    ) -> DeviceProxy {
        DeviceProxy {
            name: name.into(),
            upstream,
            rates: Mutex::new((g3_down, g3_up)),
            quota: Mutex::new(QuotaTracker::new(allowance_bytes)),
        }
    }

    /// Retune the 3G bearer (applies to connections opened afterwards).
    pub(crate) fn set_rates(&self, g3_down: RateLimit, g3_up: RateLimit) {
        *self.rates.lock() = (g3_down, g3_up);
    }

    /// Remaining quota, bytes.
    pub fn available_bytes(&self) -> f64 {
        self.quota.lock().available_bytes()
    }

    /// Bytes consumed against the current allowance (may exceed it:
    /// an in-flight transfer completes even when it overruns).
    pub fn used_bytes(&self) -> f64 {
        self.quota.lock().used_bytes()
    }

    /// Whether the device should currently advertise itself.
    pub fn should_advertise(&self) -> bool {
        self.quota.lock().should_advertise()
    }

    /// Day boundary: grant a fresh daily allowance and forget the old
    /// day's usage. An exhausted device becomes advertisable again —
    /// the §6 loop's "stops announcing until the next day".
    pub fn roll_over(&self, allowance_bytes: f64) {
        self.quota.lock().roll_over(allowance_bytes);
    }

    /// Listen on `lan_addr` (port 0 for ephemeral) and serve LAN
    /// connections. Returns the bound address and the accept-loop task.
    pub async fn spawn(
        self: Arc<Self>,
        lan_addr: &str,
    ) -> std::io::Result<(SocketAddr, tokio::task::JoinHandle<()>)> {
        let listener = TcpListener::bind(lan_addr).await?;
        let local = listener.local_addr()?;
        let handle = tokio::spawn(async move {
            loop {
                let Ok((stream, _)) = listener.accept().await else { break };
                let device = Arc::clone(&self);
                tokio::spawn(async move {
                    let _ = device.serve_lan_connection(stream).await;
                });
            }
        });
        Ok((local, handle))
    }

    /// Pipe one LAN connection through the 3G bearer: each request is
    /// forwarded upstream and the response relayed back; transferred
    /// body bytes are charged to the quota.
    ///
    /// Both directions take one path: write the head with the body's
    /// declared framing, then pipe the body through a bounded window —
    /// a segment or photo is never materialized on the device, matching
    /// the phone proxy's memory budget. A head the codec refuses (an
    /// undeclared body length included) ends the connection before
    /// anything of that message is forwarded.
    ///
    /// The 3G bearer opens when the first request head has been read:
    /// a LAN peer that sends nothing, or only a head the codec refuses,
    /// costs the phone no upstream connection.
    pub(crate) async fn serve_lan_connection(
        &self,
        lan: TcpStream,
    ) -> Result<(), threegol_http::HttpError> {
        let mut lan = HttpStream::new(lan);
        let mut bearer = None;
        // A `Full` body from a head reader is the empty body of a
        // bodyless message.
        let framing = |body: &Body| match body {
            Body::Stream(framing) => *framing,
            Body::Full(_) => BodyFraming::None,
        };
        while let Some((head, body)) = lan.read_request_head().await? {
            let upstream = match &mut bearer {
                Some(upstream) => upstream,
                None => {
                    let tcp = TcpStream::connect(self.upstream).await?;
                    let (g3_down, g3_up) = *self.rates.lock();
                    bearer.insert(HttpStream::new(ThrottledStream::new(tcp, g3_down, g3_up)))
                }
            };
            upstream.write_request_head(&head, framing(&body)).await?;
            let up_bytes = lan.pipe_body(body, upstream.get_mut()).await?;
            upstream.flush().await?;

            let (resp_head, resp_body) = upstream.read_response_head().await?;
            lan.write_response_head(&resp_head, framing(&resp_body)).await?;
            let down_bytes = upstream.pipe_body(resp_body, lan.get_mut()).await?;
            lan.flush().await?;
            self.quota.lock().consume((up_bytes + down_bytes) as f64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::OriginServer;
    use threegol_http::Request;

    async fn setup(allowance: f64) -> (Arc<DeviceProxy>, SocketAddr, Arc<OriginServer>) {
        let origin = Arc::new(OriginServer::small_for_tests());
        let (origin_addr, _h) = origin.clone().spawn("127.0.0.1:0").await.unwrap();
        let device = Arc::new(DeviceProxy::new(
            "phone-1",
            origin_addr,
            RateLimit::unlimited(),
            RateLimit::unlimited(),
            allowance,
        ));
        let (lan_addr, _h2) = device.clone().spawn("127.0.0.1:0").await.unwrap();
        (device, lan_addr, origin)
    }

    #[tokio::test]
    async fn proxies_get_requests() {
        let (device, lan_addr, _origin) = setup(10e6).await;
        let stream = TcpStream::connect(lan_addr).await.unwrap();
        let mut http = HttpStream::new(stream);
        http.write_request(&Request::get("/probe.bin")).await.unwrap();
        let resp = http.read_response().await.unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), 64_000);
        // Quota charged for the relayed body.
        assert!((device.available_bytes() - (10e6 - 64_000.0)).abs() < 1.0);
    }

    #[tokio::test]
    async fn sequential_requests_on_one_connection() {
        let (_device, lan_addr, _origin) = setup(10e6).await;
        let stream = TcpStream::connect(lan_addr).await.unwrap();
        let mut http = HttpStream::new(stream);
        for _ in 0..3 {
            http.write_request(&Request::get("/master.m3u8")).await.unwrap();
            let resp = http.read_response().await.unwrap();
            assert_eq!(resp.status, 200);
        }
    }

    #[tokio::test]
    async fn chunked_post_never_reaches_the_origin() {
        use tokio::io::{AsyncReadExt, AsyncWriteExt};
        let (device, lan_addr, origin) = setup(10e6).await;
        let connects = tokio::net::stats().tcp_connects;
        let mut lan = TcpStream::connect(lan_addr).await.unwrap();
        lan.write_all(
            b"POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        )
        .await
        .unwrap();
        // The device refuses the head and closes the LAN connection.
        let mut reply = Vec::new();
        let closed =
            tokio::time::timeout(std::time::Duration::from_secs(5), lan.read_to_end(&mut reply))
                .await;
        assert!(matches!(closed, Ok(Ok(0))), "{closed:?}: {reply:?}");
        assert_eq!(origin.requests_served(), 0);
        assert_eq!(device.available_bytes(), 10e6);
        // The refused head opened no 3G bearer: the LAN connection is
        // the only TCP connect it cost.
        assert_eq!(tokio::net::stats().tcp_connects - connects, 1);
    }

    #[tokio::test]
    async fn quota_exhaustion_stops_advertising() {
        let (device, lan_addr, _origin) = setup(100_000.0).await;
        assert!(device.should_advertise());
        let stream = TcpStream::connect(lan_addr).await.unwrap();
        let mut http = HttpStream::new(stream);
        // Two 64 kB probes blow through the 100 kB allowance.
        for _ in 0..2 {
            http.write_request(&Request::get("/probe.bin")).await.unwrap();
            let resp = http.read_response().await.unwrap();
            assert_eq!(resp.status, 200);
        }
        assert!(!device.should_advertise());
        assert_eq!(device.available_bytes(), 0.0);
    }

    #[tokio::test]
    async fn throttled_device_is_slower() {
        let origin = Arc::new(OriginServer::small_for_tests());
        let (origin_addr, _h) = origin.clone().spawn("127.0.0.1:0").await.unwrap();
        // 512 kbit/s downlink: the 64 kB probe takes ≈ 0.75 s beyond
        // the burst.
        let device = Arc::new(DeviceProxy::new(
            "slow",
            origin_addr,
            RateLimit { rate_bps: 512_000.0, burst_bytes: 16_384.0 },
            RateLimit::unlimited(),
            10e6,
        ));
        let (lan_addr, _h2) = device.clone().spawn("127.0.0.1:0").await.unwrap();
        let stream = TcpStream::connect(lan_addr).await.unwrap();
        let mut http = HttpStream::new(stream);
        let start = tokio::time::Instant::now();
        http.write_request(&Request::get("/probe.bin")).await.unwrap();
        let resp = http.read_response().await.unwrap();
        assert_eq!(resp.body.len(), 64_000);
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.4, "took {secs}");
    }
}
