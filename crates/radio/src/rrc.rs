//! The UMTS RRC (Radio Resource Control) state machine.
//!
//! A 3G device idles in `IDLE`, holds a shared low-rate channel in
//! `FACH`, and holds a dedicated high-rate channel in `DCH`. Promotions
//! cost signalling round-trips — the paper's "channel acquisition delay"
//! — and demotions happen on inactivity timers. The paper's `H`
//! experiment variants warm the phones into connected mode with an ICMP
//! train before each transaction; [`RrcMachine::warm_up`] models that.

use threegol_simnet::SimTime;

/// RRC states of a UMTS handset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrcState {
    /// No radio resources held.
    Idle,
    /// Shared forward-access channel: connected, low rate.
    Fach,
    /// Dedicated channel: full HSPA rate.
    Dch,
}

/// Promotion delays and inactivity timers, in seconds.
///
/// Defaults follow the commonly measured values for European UMTS
/// deployments of the paper's era (e.g., Qian et al., "Characterizing
/// radio resource allocation for 3G networks").
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RrcConfig {
    /// IDLE → DCH promotion delay (RRC connection setup), seconds.
    pub idle_to_dch_secs: f64,
    /// FACH → DCH promotion delay, seconds.
    pub fach_to_dch_secs: f64,
    /// DCH → FACH inactivity timer, seconds.
    pub dch_inactivity_secs: f64,
    /// FACH → IDLE inactivity timer, seconds.
    pub fach_inactivity_secs: f64,
}

impl Default for RrcConfig {
    fn default() -> Self {
        RrcConfig {
            idle_to_dch_secs: 2.0,
            fach_to_dch_secs: 1.5,
            dch_inactivity_secs: 5.0,
            fach_inactivity_secs: 12.0,
        }
    }
}

/// Per-device RRC state tracker.
///
/// The machine is driven by the caller's virtual clock: call
/// [`RrcMachine::acquire`] when a transfer wants to start (it returns
/// the promotion delay to wait before bytes flow and moves the machine
/// to `DCH`), and [`RrcMachine::on_activity`] whenever bytes flow, so
/// inactivity demotions are computed correctly.
#[derive(Debug, Clone)]
pub struct RrcMachine {
    config: RrcConfig,
    state: RrcState,
    last_activity: SimTime,
}

impl RrcMachine {
    /// A machine starting in `IDLE` at time zero.
    pub fn new(config: RrcConfig) -> RrcMachine {
        RrcMachine { config, state: RrcState::Idle, last_activity: SimTime::ZERO }
    }

    /// The state at time `now`, applying any inactivity demotions that
    /// have elapsed since the last recorded activity.
    pub fn state_at(&self, now: SimTime) -> RrcState {
        let idle_for = now.since(self.last_activity);
        match self.state {
            RrcState::Idle => RrcState::Idle,
            RrcState::Dch => {
                if idle_for >= self.config.dch_inactivity_secs + self.config.fach_inactivity_secs {
                    RrcState::Idle
                } else if idle_for >= self.config.dch_inactivity_secs {
                    RrcState::Fach
                } else {
                    RrcState::Dch
                }
            }
            RrcState::Fach => {
                if idle_for >= self.config.fach_inactivity_secs {
                    RrcState::Idle
                } else {
                    RrcState::Fach
                }
            }
        }
    }

    /// Request the dedicated channel at time `now`.
    ///
    /// Returns the promotion delay in seconds (0 if already in `DCH`)
    /// and leaves the machine in `DCH` with its activity clock set to
    /// the promotion completion time.
    pub fn acquire(&mut self, now: SimTime) -> f64 {
        let delay = match self.state_at(now) {
            RrcState::Dch => 0.0,
            RrcState::Fach => self.config.fach_to_dch_secs,
            RrcState::Idle => self.config.idle_to_dch_secs,
        };
        self.state = RrcState::Dch;
        self.last_activity = now + delay;
        delay
    }

    /// Record data activity at `now` (refreshes inactivity timers).
    ///
    /// Data transfer at HSPA rates requires the dedicated channel, so
    /// activity also (re-)establishes `DCH`.
    pub fn on_activity(&mut self, now: SimTime) {
        self.state = RrcState::Dch;
        self.last_activity = self.last_activity.max(now);
    }

    /// Warm the device into connected mode (the paper's ICMP train):
    /// after this, the next [`RrcMachine::acquire`] costs nothing.
    pub fn warm_up(&mut self, now: SimTime) {
        let _ = self.acquire(now);
        self.on_activity(now + self.config.idle_to_dch_secs.max(0.0));
    }
}

impl Default for RrcMachine {
    fn default() -> Self {
        RrcMachine::new(RrcConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn cold_start_pays_full_promotion() {
        let mut rrc = RrcMachine::default();
        assert_eq!(rrc.state_at(t(0.0)), RrcState::Idle);
        let d = rrc.acquire(t(0.0));
        assert_eq!(d, 2.0);
        assert_eq!(rrc.state_at(t(2.0)), RrcState::Dch);
    }

    #[test]
    fn warm_device_acquires_for_free() {
        let mut rrc = RrcMachine::default();
        rrc.warm_up(t(0.0));
        assert_eq!(rrc.acquire(t(2.5)), 0.0);
    }

    #[test]
    fn demotion_chain_dch_fach_idle() {
        let mut rrc = RrcMachine::default();
        rrc.acquire(t(0.0)); // DCH from t=2
        rrc.on_activity(t(3.0));
        assert_eq!(rrc.state_at(t(4.0)), RrcState::Dch);
        assert_eq!(rrc.state_at(t(8.0)), RrcState::Fach); // 5 s inactivity
        assert_eq!(rrc.state_at(t(19.9)), RrcState::Fach);
        assert_eq!(rrc.state_at(t(20.0)), RrcState::Idle); // +12 s more
    }

    #[test]
    fn fach_reacquire_is_cheaper() {
        let mut rrc = RrcMachine::default();
        rrc.acquire(t(0.0));
        rrc.on_activity(t(2.0));
        // At t=8 the device demoted to FACH; re-acquiring costs 1.5 s.
        let d = rrc.acquire(t(8.0));
        assert_eq!(d, 1.5);
    }

    #[test]
    fn activity_refreshes_timer() {
        let mut rrc = RrcMachine::default();
        rrc.acquire(t(0.0));
        rrc.on_activity(t(4.0));
        rrc.on_activity(t(8.0));
        assert_eq!(rrc.state_at(t(12.0)), RrcState::Dch);
    }

    #[test]
    fn stale_activity_does_not_rewind_clock() {
        let mut rrc = RrcMachine::default();
        rrc.acquire(t(0.0));
        rrc.on_activity(t(10.0));
        rrc.on_activity(t(5.0)); // out-of-order report must not rewind
        assert_eq!(rrc.state_at(t(14.0)), RrcState::Dch);
    }
}
