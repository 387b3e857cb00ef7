//! UDP announce/browse discovery on the home LAN (a per-home subnet
//! of the virtual network).
//!
//! The paper's device component "advertises the device availability
//! through a discovery protocol like Bonjour only if the device has an
//! active permission by the cellular network" (§2.4) — and, in the
//! multi-provider mode, only while its quota `A(t) > 0` (§6). The
//! client builds the admissible set Φ from the advertisements it
//! hears; stale entries (no announcement within the TTL) drop out.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tokio::time::Instant;

use parking_lot::Mutex;
use tokio::net::UdpSocket;

/// One device advertisement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Advertisement {
    /// Device name, e.g. `"phone-1"`.
    pub name: String,
    /// TCP address of the device's proxy on the LAN side.
    pub proxy_addr: SocketAddr,
    /// Advertised available quota, bytes (`A(t)`).
    pub available_bytes: f64,
}

impl Advertisement {
    /// Encode for the wire. Like the repository's JSON artifacts, the
    /// datagram format is explicit formatting code rather than a
    /// serializer (the vendored `serde_json` is an offline stub): a
    /// version tag, the proxy address, the quota, then the free-form
    /// device name — name last so it may contain any byte, including
    /// the `\n` field separator.
    fn encode(&self) -> Vec<u8> {
        format!("3gol-ad/1\n{}\n{}\n{}", self.proxy_addr, self.available_bytes, self.name)
            .into_bytes()
    }

    /// Parse a datagram produced by [`Advertisement::encode`];
    /// `None` for foreign or malformed traffic.
    fn parse(payload: &[u8]) -> Option<Advertisement> {
        let text = std::str::from_utf8(payload).ok()?;
        let mut fields = text.splitn(4, '\n');
        if fields.next()? != "3gol-ad/1" {
            return None;
        }
        let proxy_addr = fields.next()?.parse().ok()?;
        let available_bytes = fields.next()?.parse().ok()?;
        let name = fields.next()?.to_string();
        Some(Advertisement { name, proxy_addr, available_bytes })
    }
}

/// Advertisement freshness window.
pub const TTL: Duration = Duration::from_secs(3);

/// The client-side discovery listener.
pub struct Discovery {
    socket: Arc<UdpSocket>,
    seen: Arc<Mutex<HashMap<String, (Advertisement, Instant)>>>,
}

impl Discovery {
    /// Bind a listener on `addr` (port 0 for ephemeral) and start
    /// collecting announcements.
    pub async fn bind(addr: &str) -> std::io::Result<Discovery> {
        let socket = Arc::new(UdpSocket::bind(addr).await?);
        let seen: Arc<Mutex<HashMap<String, (Advertisement, Instant)>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let rx_socket = Arc::clone(&socket);
        let rx_seen = Arc::clone(&seen);
        tokio::spawn(async move {
            let mut buf = vec![0u8; 4096];
            loop {
                let Ok((n, _peer)) = rx_socket.recv_from(&mut buf).await else { break };
                if let Some(ad) = Advertisement::parse(&buf[..n]) {
                    rx_seen.lock().insert(ad.name.clone(), (ad, Instant::now()));
                }
            }
        });
        Ok(Discovery { socket, seen })
    }

    /// The address announcers should send to.
    pub(crate) fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The current admissible set Φ: fresh advertisements, sorted by
    /// device name for deterministic path numbering.
    pub(crate) fn admissible(&self) -> Vec<Advertisement> {
        let now = Instant::now();
        let mut seen = self.seen.lock();
        seen.retain(|_, (_, at)| now.duration_since(*at) < TTL);
        let mut ads: Vec<Advertisement> = seen.values().map(|(ad, _)| ad.clone()).collect();
        ads.sort_by(|a, b| a.name.cmp(&b.name));
        ads
    }
}

/// A phone's announcement sender: one bound socket for every beacon
/// the phone sends. A home's rig binds one per phone at bring-up and
/// beacons once per session ([`crate::Rig::paths`]), so no beacon pays
/// ephemeral-port assignment and socket teardown.
pub struct Announcer {
    socket: UdpSocket,
    to: SocketAddr,
}

impl Announcer {
    /// Bind a sender toward `to`, on an ephemeral port of the
    /// listener's own IP so beacons stay inside that home's subnet.
    pub async fn bind(to: SocketAddr) -> std::io::Result<Announcer> {
        Ok(Announcer { socket: UdpSocket::bind((to.ip(), 0)).await?, to })
    }

    /// Send one announcement datagram.
    pub async fn announce(&self, ad: &Advertisement) -> std::io::Result<()> {
        self.socket.send_to(&ad.encode(), self.to).await?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ad(name: &str, avail: f64) -> Advertisement {
        Advertisement {
            name: name.to_string(),
            proxy_addr: "127.0.0.1:9999".parse().unwrap(),
            available_bytes: avail,
        }
    }

    #[tokio::test]
    async fn announce_and_browse() {
        let disc = Discovery::bind("127.0.0.1:0").await.unwrap();
        let announcer = Announcer::bind(disc.local_addr().unwrap()).await.unwrap();
        announcer.announce(&ad("phone-2", 10e6)).await.unwrap();
        announcer.announce(&ad("phone-1", 20e6)).await.unwrap();
        // Give the listener a moment to process the datagrams.
        tokio::time::sleep(Duration::from_millis(100)).await;
        let ads = disc.admissible();
        assert_eq!(ads.len(), 2);
        // Deterministic ordering by name.
        assert_eq!(ads[0].name, "phone-1");
        assert_eq!(ads[1].name, "phone-2");
        assert_eq!(ads[0].available_bytes, 20e6);
    }

    #[tokio::test]
    async fn reannouncement_updates_quota() {
        let disc = Discovery::bind("127.0.0.1:0").await.unwrap();
        let announcer = Announcer::bind(disc.local_addr().unwrap()).await.unwrap();
        announcer.announce(&ad("phone-1", 20e6)).await.unwrap();
        tokio::time::sleep(Duration::from_millis(50)).await;
        announcer.announce(&ad("phone-1", 5e6)).await.unwrap();
        tokio::time::sleep(Duration::from_millis(100)).await;
        let ads = disc.admissible();
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].available_bytes, 5e6);
    }

    #[tokio::test]
    async fn stale_entries_expire() {
        let disc = Discovery::bind("127.0.0.1:0").await.unwrap();
        // Insert directly, stamped now, then let the virtual clock run
        // past the 3 s TTL.
        disc.seen.lock().insert("phone-1".into(), (ad("phone-1", 1e6), Instant::now()));
        assert_eq!(disc.admissible().len(), 1);
        tokio::time::sleep(Duration::from_secs(4)).await;
        assert!(disc.admissible().is_empty());
    }
}
