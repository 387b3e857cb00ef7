//! Per-device quota tracking and the advertisement/admissible-set
//! mechanics (paper §6):
//!
//! > "The component running on the cellular device can track 3GOL data
//! > usage U(t) and estimate the 3GOL allowance 3GOLa(t). If the
//! > available quota A(t) = 3GOLa(t) − U(t) is greater than zero, the
//! > device advertises itself. All devices that advertise themselves
//! > become part of the admissible set Φ."

/// One month of a subscriber's billing data.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonthlyUsage {
    /// Contracted cap, bytes.
    pub cap_bytes: f64,
    /// Volume actually used (by the user's own traffic), bytes.
    pub used_bytes: f64,
}

impl MonthlyUsage {
    /// Create a record; usage may exceed the cap (overage happens).
    pub fn new(cap_bytes: f64, used_bytes: f64) -> MonthlyUsage {
        assert!(cap_bytes > 0.0 && used_bytes >= 0.0);
        MonthlyUsage { cap_bytes, used_bytes }
    }

    /// Free (unused, already paid for) volume, bytes.
    pub fn free_bytes(&self) -> f64 {
        (self.cap_bytes - self.used_bytes).max(0.0)
    }

    /// Fraction of the cap used, possibly > 1.
    pub fn used_fraction(&self) -> f64 {
        self.used_bytes / self.cap_bytes
    }
}

/// Tracks a device's 3GOL usage against its current allowance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaTracker {
    allowance_bytes: f64,
    used_bytes: f64,
}

impl QuotaTracker {
    /// Create a tracker with the period's allowance (`3GOLa(t)`).
    pub fn new(allowance_bytes: f64) -> QuotaTracker {
        assert!(allowance_bytes >= 0.0);
        QuotaTracker { allowance_bytes, used_bytes: 0.0 }
    }

    /// 3GOL bytes consumed so far (`U(t)`).
    pub fn used_bytes(&self) -> f64 {
        self.used_bytes
    }

    /// Available quota `A(t) = 3GOLa(t) − U(t)`, floored at zero.
    pub fn available_bytes(&self) -> f64 {
        (self.allowance_bytes - self.used_bytes).max(0.0)
    }

    /// Whether the device should advertise itself (`A(t) > 0`).
    pub fn should_advertise(&self) -> bool {
        self.available_bytes() > 0.0
    }

    /// Record `bytes` of 3GOL traffic; returns how much fit within the
    /// quota (a scheduler should size transfers with `available_bytes`
    /// beforehand, but late accounting must not go negative).
    pub fn consume(&mut self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0);
        let granted = bytes.min(self.available_bytes());
        self.used_bytes += bytes;
        granted
    }

    /// Reset usage for a new period with a fresh allowance.
    pub fn roll_over(&mut self, new_allowance_bytes: f64) {
        assert!(new_allowance_bytes >= 0.0);
        self.allowance_bytes = new_allowance_bytes;
        self.used_bytes = 0.0;
    }
}

/// The client's admissible set Φ: devices currently advertising.
#[derive(Debug, Clone, Default)]
pub struct AdmissibleSet {
    devices: Vec<(String, f64)>, // (name, advertised available bytes)
}

impl AdmissibleSet {
    /// An empty set.
    pub fn new() -> AdmissibleSet {
        AdmissibleSet::default()
    }

    /// Rebuild the set from device advertisements: a device appears in
    /// Φ only if its tracker authorizes it.
    pub fn refresh<'a>(&mut self, devices: impl IntoIterator<Item = (&'a str, &'a QuotaTracker)>) {
        self.devices.clear();
        for (name, tracker) in devices {
            if tracker.should_advertise() {
                self.devices.push((name.to_string(), tracker.available_bytes()));
            }
        }
    }

    /// Number of admissible devices (`|Φ|`, i.e. `N − 1` paths).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if no device is advertising.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device names in Φ.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.devices.iter().map(|(n, _)| n.as_str())
    }

    /// Total advertised available quota, bytes.
    pub fn total_available_bytes(&self) -> f64 {
        self.devices.iter().map(|(_, a)| a).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1e6;

    #[test]
    fn monthly_usage_accessors() {
        let m = MonthlyUsage::new(1000.0 * MB, 150.0 * MB);
        assert_eq!(m.free_bytes(), 850.0 * MB);
        assert!((m.used_fraction() - 0.15).abs() < 1e-12);
        // Overage clamps free at zero.
        let over = MonthlyUsage::new(1000.0 * MB, 1200.0 * MB);
        assert_eq!(over.free_bytes(), 0.0);
        assert!(over.used_fraction() > 1.0);
    }

    #[test]
    fn tracker_lifecycle() {
        let mut t = QuotaTracker::new(40.0 * MB);
        assert!(t.should_advertise());
        assert_eq!(t.consume(15.0 * MB), 15.0 * MB);
        assert_eq!(t.available_bytes(), 25.0 * MB);
        // Oversized late accounting is clamped to what was available.
        assert_eq!(t.consume(30.0 * MB), 25.0 * MB);
        assert_eq!(t.available_bytes(), 0.0);
        assert!(!t.should_advertise());
        t.roll_over(20.0 * MB);
        assert_eq!(t.available_bytes(), 20.0 * MB);
        assert_eq!(t.used_bytes(), 0.0);
    }

    #[test]
    fn zero_allowance_never_advertises() {
        let t = QuotaTracker::new(0.0);
        assert!(!t.should_advertise());
    }

    #[test]
    fn admissible_set_tracks_advertisers() {
        let a = QuotaTracker::new(20.0 * MB);
        let mut b = QuotaTracker::new(10.0 * MB);
        b.consume(10.0 * MB);
        let c = QuotaTracker::new(5.0 * MB);
        let mut phi = AdmissibleSet::new();
        phi.refresh([("a", &a), ("b", &b), ("c", &c)]);
        assert_eq!(phi.len(), 2);
        assert!(!phi.is_empty());
        let names: Vec<&str> = phi.names().collect();
        assert_eq!(names, vec!["a", "c"]);
        assert_eq!(phi.total_available_bytes(), 25.0 * MB);
        // b exhausted: refreshing drops it; later roll-over re-admits.
        b.roll_over(10.0 * MB);
        phi.refresh([("a", &a), ("b", &b), ("c", &c)]);
        assert_eq!(phi.len(), 3);
    }
}
