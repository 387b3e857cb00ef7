//! The discrete-event fluid engine.
//!
//! [`Simulation`] owns links and flows, advances virtual time from event
//! to event, and recomputes max-min fair rates whenever the flow set or
//! a relevant link capacity changes. Capacity change points of links that
//! currently carry no flow are ignored (they cannot affect any rate),
//! which keeps long idle periods free.
//!
//! Stepping is **event-local**: the engine never scans the whole flow or
//! link population per event. Upcoming completions live in a
//! lazy-deletion min-heap keyed by `(predicted completion, flow id)`
//! whose entries are *lower bounds*: a rate change only queues a new
//! entry when the fresh prediction undercuts the flow's armed one (the
//! ratchet), and an entry that surfaces early is re-armed at the true
//! prediction — so steady-state rate churn costs no heap traffic at
//! all. Upcoming capacity changes live in a second heap keyed per link
//! and invalidated by a per-link epoch. Flow and link byte counters are
//! settled lazily from `(rate, settled_at)` anchors (see
//! `Flow::settle_to`), so a step costs
//! O(log n + size of the re-solved component) instead of
//! O(all flows + all links). See DESIGN.md §8.
//!
//! The caller drives the simulation with [`Simulation::next_event`] and
//! reacts to completions/wakeups — this is how the multipath schedulers
//! in `threegol-sched` are plugged in.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Bound;

use crate::capacity::CapacityProcess;
use crate::error::SimError;
use crate::fairshare::{max_min_fair_subset_into, FairShareScratch, FlowSet};
use crate::flow::{Flow, FlowId, COMPLETE_EPS_BYTES};
use crate::link::{Link, LinkId};
use crate::time::SimTime;

/// Opaque user token attached to a scheduled wakeup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WakeToken(pub u64);

/// An externally visible simulation event.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A flow finished transferring all its bytes.
    FlowCompleted {
        /// The completed flow's id.
        flow: FlowId,
        /// Full record of the flow at completion time.
        record: Flow,
        /// Completion time.
        time: SimTime,
    },
    /// A wakeup scheduled via [`Simulation::schedule_wakeup`] fired.
    Wakeup {
        /// The token supplied at scheduling time.
        token: WakeToken,
        /// Fire time.
        time: SimTime,
    },
}

impl SimEvent {
    /// The event's timestamp.
    pub fn time(&self) -> SimTime {
        match self {
            SimEvent::FlowCompleted { time, .. } | SimEvent::Wakeup { time, .. } => *time,
        }
    }
}

/// Paths can hold up to this many links inline; longer ones spill to a
/// heap vector at flow-start time (never in the steady-state loop).
const INLINE_PATH: usize = 4;
/// `lens` marker for a spilled path.
const SPILLED: u8 = u8::MAX;

/// Per-slot path/cap storage for active flows — the engine-side
/// [`FlowSet`] the solver consumes directly. Slots stay stable across
/// unrelated churn and are reused after removal, so rates, per-link flow
/// lists and flow records can all reference a flow by slot.
#[derive(Debug, Default)]
struct SlotPaths {
    /// Per-slot rate cap (`f64::INFINITY` when uncapped).
    caps: Vec<f64>,
    /// Inline path length, or [`SPILLED`].
    lens: Vec<u8>,
    /// Inline link indices (first `lens[slot]` entries are valid).
    inline: Vec<[u32; INLINE_PATH]>,
    /// Overflow storage for paths longer than [`INLINE_PATH`].
    spill: Vec<Vec<u32>>,
}

impl SlotPaths {
    /// Number of slots (live and free).
    fn len(&self) -> usize {
        self.caps.len()
    }

    /// Append one (uninitialized) slot.
    fn push_slot(&mut self) {
        self.caps.push(f64::INFINITY);
        self.lens.push(0);
        self.inline.push([0; INLINE_PATH]);
        self.spill.push(Vec::new());
    }

    /// (Re)initialize `slot` with a flow's path and cap.
    fn set(&mut self, slot: usize, path: &[LinkId], cap: Option<f64>) {
        self.caps[slot] = cap.unwrap_or(f64::INFINITY);
        if path.len() <= INLINE_PATH {
            self.lens[slot] = path.len() as u8;
            for (dst, l) in self.inline[slot].iter_mut().zip(path) {
                *dst = l.0 as u32;
            }
        } else {
            self.lens[slot] = SPILLED;
            self.spill[slot].clear();
            self.spill[slot].extend(path.iter().map(|l| l.0 as u32));
        }
    }
}

impl FlowSet for SlotPaths {
    fn links_of(&self, f: usize) -> &[u32] {
        if self.lens[f] == SPILLED {
            &self.spill[f]
        } else {
            &self.inline[f][..self.lens[f] as usize]
        }
    }

    fn cap_of(&self, f: usize) -> f64 {
        self.caps[f]
    }
}

/// Which flows cross each link, and which links changed since the
/// last recompute.
///
/// Max-min fairness decomposes over the connected components of the
/// link-sharing graph, so a recompute re-solves only the components it
/// reaches by walking from each dirty link, through that link's flows,
/// to their links ([`Topology::walk`]). A new flow marks one of its
/// links dirty (it joins all of them into one component); a removed
/// flow marks every link on its path (its departure may split the
/// component). Walk marks are stamps, so nothing is cleared after a
/// recompute, and every buffer is persistent.
#[derive(Debug, Default)]
struct Topology {
    /// `FlowId` of each slot (stale for free slots).
    flow_ids: Vec<FlowId>,
    /// Paths and caps by slot (the solver's [`FlowSet`]).
    paths: SlotPaths,
    free_slots: Vec<u32>,
    /// Flow slots crossing each link, one entry per occurrence on a
    /// path. A link is busy while its list is non-empty.
    link_flows: Vec<Vec<u32>>,
    /// Links whose components the next recompute re-solves (a link may
    /// repeat; the walk skips one it has already reached).
    dirty_links: Vec<u32>,
    /// The current recompute's stamp; a link or slot is reached when
    /// its stamp equals it. 64 bits, so the count never wraps.
    stamp: u64,
    link_stamp: Vec<u64>,
    slot_stamp: Vec<u64>,
    /// The links and flow slots of the component the last walk reached.
    comp_links: Vec<u32>,
    comp_flows: Vec<u32>,
}

impl Topology {
    /// Register a new link, idle.
    fn add_link(&mut self) {
        self.link_flows.push(Vec::new());
        self.link_stamp.push(0);
    }

    /// Whether any flow crosses `link`.
    fn busy(&self, link: usize) -> bool {
        !self.link_flows[link].is_empty()
    }

    /// Register flow `id` on `path`, returning its slot.
    fn add_flow(&mut self, id: FlowId, path: &[LinkId], cap: Option<f64>) -> u32 {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = self.flow_ids.len() as u32;
                self.flow_ids.push(id);
                self.slot_stamp.push(0);
                self.paths.push_slot();
                s
            }
        };
        self.flow_ids[slot as usize] = id;
        self.paths.set(slot as usize, path, cap);
        for l in path {
            self.link_flows[l.0].push(slot);
        }
        self.dirty_links.push(path[0].0 as u32);
        slot
    }

    /// Unregister the flow in `slot` (whose path was `path`).
    fn remove_flow(&mut self, slot: u32, path: &[LinkId]) {
        for l in path {
            let flows = &mut self.link_flows[l.0];
            let pos = flows.iter().position(|&s| s == slot).expect("flow on its link");
            flows.swap_remove(pos);
            self.dirty_links.push(l.0 as u32);
        }
        self.free_slots.push(slot);
    }

    /// Collect the component of `start` into `comp_links` and
    /// `comp_flows`, walking from link to flow to link. Returns `false`
    /// if an earlier walk of this recompute already reached `start`.
    fn walk(&mut self, start: u32) -> bool {
        if self.link_stamp[start as usize] == self.stamp {
            return false;
        }
        self.link_stamp[start as usize] = self.stamp;
        self.comp_links.clear();
        self.comp_flows.clear();
        self.comp_links.push(start);
        let mut next = 0;
        while let Some(&l) = self.comp_links.get(next) {
            next += 1;
            for &slot in &self.link_flows[l as usize] {
                if self.slot_stamp[slot as usize] == self.stamp {
                    continue;
                }
                self.slot_stamp[slot as usize] = self.stamp;
                self.comp_flows.push(slot);
                for &m in self.paths.links_of(slot as usize) {
                    if self.link_stamp[m as usize] != self.stamp {
                        self.link_stamp[m as usize] = self.stamp;
                        self.comp_links.push(m);
                    }
                }
            }
        }
        true
    }
}

/// Outcome of settling a calendar-due flow at the current instant.
enum Due {
    /// The flow completed; the event is ready to surface.
    Done(SimEvent),
    /// False alarm (floating-point slack between the predicted instant
    /// and the settled bytes): the flow still has work; a fresh
    /// prediction must be queued.
    Rearm,
    /// The flow's residual transfer time is below one clock ULP, but a
    /// wakeup is due at this same instant and fires first; the snap to
    /// completion is deferred until the wakeups at `now` drain.
    Gated,
}

/// A deterministic fluid-flow network simulation.
#[derive(Debug, Default)]
pub struct Simulation {
    now: SimTime,
    links: Vec<Link>,
    flows: BTreeMap<FlowId, Flow>,
    next_flow_id: u64,
    wakeups: BinaryHeap<Reverse<(SimTime, u64, u64)>>, // (time, seq, token)
    wake_seq: u64,
    rates_dirty: bool,
    // --- hot-path state (see DESIGN.md §8) ---
    /// Which flows cross each link (always current).
    topo: Topology,
    /// Cached per-link capacity, refreshed per component when that
    /// component is re-solved (clean components keep their values —
    /// exact between their change points, see DESIGN.md §8).
    caps: Vec<f64>,
    /// Per-slot rates (same indexing as `Topology::paths`).
    rates: Vec<f64>,
    /// Solver working memory.
    scratch: FairShareScratch,
    /// Links achieving the earliest next capacity change, as recorded
    /// by the reference stepper's scan (committed if that event fires).
    cap_candidates: Vec<u32>,
    // --- event calendars (see DESIGN.md §8, "Event-local stepping") ---
    /// Completion calendar: lazy-deletion min-heap of
    /// `(predicted completion, flow id)`. Entry times are **lower
    /// bounds** on the true completion instant (see
    /// [`Flow::armed_at`]): an entry whose flow is gone is discarded
    /// when it surfaces; one that surfaces before its flow's current
    /// prediction is re-armed at that prediction without advancing the
    /// clock or touching any byte accounting.
    completions: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Capacity calendar: min-heap of `(next change, link, link epoch)`
    /// with one valid entry per armed link, re-armed when it fires.
    cap_events: BinaryHeap<Reverse<(SimTime, u32, u32)>>,
    /// Per-link arm epoch: bumped whenever queued `cap_events` entries
    /// must die — the process was replaced, or the link went from idle
    /// to busy or back.
    cap_epochs: Vec<u32>,
    /// Side stack for due completion entries deferred behind a
    /// same-instant wakeup (the sub-ULP snap gate); drained back into
    /// `completions` at the end of each pop run.
    gated_scratch: Vec<(SimTime, u64)>,
    /// Reusable settled copy handed out by [`Simulation::flow`], so
    /// queries never perturb the engine's own settlement arithmetic.
    flow_scratch: Option<Flow>,
    /// Step via the retained global-scan reference logic instead of the
    /// calendars (test oracle; see `use_reference_stepper`).
    reference_scan: bool,
}

impl Simulation {
    /// Create an empty simulation at time zero.
    pub fn new() -> Simulation {
        Simulation::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a link and return its id.
    pub fn add_link(&mut self, name: impl Into<String>, process: CapacityProcess) -> LinkId {
        self.links.push(Link::new(name, process));
        self.topo.add_link();
        self.cap_epochs.push(0);
        LinkId(self.links.len() - 1)
    }

    /// Replace a link's capacity process (e.g., RRC state promotion).
    pub fn set_capacity_process(&mut self, link: LinkId, process: CapacityProcess) {
        self.links[link.0].process = process;
        self.topo.dirty_links.push(link.0 as u32);
        self.rates_dirty = true;
        self.cap_epochs[link.0] = self.cap_epochs[link.0].wrapping_add(1);
        if self.topo.busy(link.0) {
            if let Some(t) = self.links[link.0].process.next_change(self.now) {
                self.cap_events.push(Reverse((t, link.0 as u32, self.cap_epochs[link.0])));
            }
        }
    }

    /// Read a link (with its byte accounting settled to the current
    /// time).
    pub fn link(&mut self, link: LinkId) -> &Link {
        let now = self.now;
        self.links[link.0].settle_to(now);
        &self.links[link.0]
    }

    /// Iterate over all links with their ids (byte accounting settled).
    pub fn links(&mut self) -> impl Iterator<Item = (LinkId, &Link)> {
        let now = self.now;
        for l in &mut self.links {
            l.settle_to(now);
        }
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Start a flow of `size_bytes` across `path`. Returns its id.
    ///
    /// # Panics
    /// Panics on an empty path, unknown links, or a non-finite/negative
    /// size; use [`Simulation::try_start_flow`] for fallible creation.
    pub fn start_flow(&mut self, path: Vec<LinkId>, size_bytes: f64) -> FlowId {
        self.try_start_flow(path, size_bytes, None).expect("invalid flow")
    }

    /// Start a flow with an optional per-flow rate cap (bits/second).
    pub fn start_capped_flow(
        &mut self,
        path: Vec<LinkId>,
        size_bytes: f64,
        rate_cap: f64,
    ) -> FlowId {
        self.try_start_flow(path, size_bytes, Some(rate_cap)).expect("invalid flow")
    }

    /// Fallible flow creation.
    pub fn try_start_flow(
        &mut self,
        path: Vec<LinkId>,
        size_bytes: f64,
        rate_cap: Option<f64>,
    ) -> Result<FlowId, SimError> {
        if path.is_empty() {
            return Err(SimError::EmptyPath);
        }
        for l in &path {
            if l.0 >= self.links.len() {
                return Err(SimError::UnknownLink(l.0));
            }
        }
        if !size_bytes.is_finite() || size_bytes < 0.0 {
            return Err(SimError::InvalidSize(format!("{size_bytes}")));
        }
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        for l in &path {
            if !self.topo.busy(l.0) {
                // Idle → active: (re)arm the capacity calendar from now.
                // Bumping the epoch first kills any stale queued entry —
                // and makes a duplicated link later in this same path
                // self-correcting (its earlier arm goes stale).
                self.cap_epochs[l.0] = self.cap_epochs[l.0].wrapping_add(1);
                if let Some(t) = self.links[l.0].process.next_change(self.now) {
                    self.cap_events.push(Reverse((t, l.0 as u32, self.cap_epochs[l.0])));
                }
            }
        }
        let slot = self.topo.add_flow(id, &path, rate_cap);
        let mut f = Flow {
            path,
            size_bytes,
            remaining_bytes: size_bytes,
            rate_bps: 0.0,
            rate_cap,
            started_at: self.now,
            slot,
            settled_at: self.now,
            armed_at: SimTime::FAR_FUTURE,
        };
        // Zero-sized (≤ epsilon) flows are due immediately, before any
        // rate is ever assigned; queue them at their start instant.
        if let Some(t) = f.predicted_completion() {
            f.armed_at = t;
            self.completions.push(Reverse((t, id.0)));
        }
        self.flows.insert(id, f);
        // Keep the completion calendar's capacity above its compaction
        // ceiling (64 + 4·flows, plus one recompute's worth of ratchet
        // pushes). Reserved here, at a flow-churn point, it guarantees
        // the steady-state loop never outgrows the buffer however long
        // it runs: compaction trims the length back before it can
        // reach this capacity.
        let floor = 65 + 5 * self.flows.len();
        if self.completions.capacity() < floor {
            self.completions.reserve(floor - self.completions.len());
        }
        self.rates_dirty = true;
        Ok(id)
    }

    /// Cancel an active flow, returning its record (with the bytes it
    /// transferred before cancellation — the "wasted bytes" accounting of
    /// the greedy scheduler uses this).
    pub fn cancel_flow(&mut self, id: FlowId) -> Result<Flow, SimError> {
        let now = self.now;
        match self.flows.get_mut(&id) {
            Some(f) => f.settle_to(now),
            None => return Err(SimError::UnknownFlow(id.0)),
        }
        let f = self.flows.remove(&id).expect("checked above");
        self.unregister(&f);
        Ok(f)
    }

    /// Take a completed or cancelled flow out of the topology. A link
    /// its departure leaves idle drops its queued capacity changes,
    /// which can no longer affect any rate.
    fn unregister(&mut self, f: &Flow) {
        self.topo.remove_flow(f.slot, &f.path);
        for l in &f.path {
            if !self.topo.busy(l.0) {
                self.cap_epochs[l.0] = self.cap_epochs[l.0].wrapping_add(1);
            }
        }
        self.rates_dirty = true;
    }

    /// Access an active flow, with its progress settled to the current
    /// time.
    ///
    /// The settlement happens on a reusable scratch copy: the engine's
    /// own record is only ever settled on event boundaries, so query
    /// patterns cannot perturb the simulated trajectory.
    pub fn flow(&mut self, id: FlowId) -> Option<&Flow> {
        let f = self.flows.get(&id)?;
        match &mut self.flow_scratch {
            Some(s) => {
                s.path.clone_from(&f.path);
                s.size_bytes = f.size_bytes;
                s.remaining_bytes = f.remaining_bytes;
                s.rate_bps = f.rate_bps;
                s.rate_cap = f.rate_cap;
                s.started_at = f.started_at;
                s.slot = f.slot;
                s.settled_at = f.settled_at;
                s.armed_at = f.armed_at;
            }
            None => self.flow_scratch = Some(f.clone()),
        }
        let now = self.now;
        let s = self.flow_scratch.as_mut().expect("just populated");
        s.settle_to(now);
        Some(s)
    }

    /// Ids of all active flows (ascending).
    pub fn active_flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.flows.keys().copied()
    }

    /// Number of active flows.
    pub fn active_flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Schedule a wakeup at absolute time `at` (clamped to now if in the
    /// past) carrying `token`.
    pub fn schedule_wakeup(&mut self, at: SimTime, token: WakeToken) {
        let at = at.max(self.now);
        self.wakeups.push(Reverse((at, self.wake_seq, token.0)));
        self.wake_seq += 1;
    }

    /// Schedule a wakeup `delay_secs` from now.
    pub fn schedule_wakeup_in(&mut self, delay_secs: f64, token: WakeToken) {
        let at = self.now + delay_secs.max(0.0);
        self.schedule_wakeup(at, token);
    }

    /// Re-solve the components the dirty links reach, refreshing their
    /// links' capacities at the current time; every other component
    /// keeps its rates and cached capacities.
    ///
    /// Each dirty link not yet reached starts a walk
    /// ([`Topology::walk`]) that collects exactly its component: the
    /// link's flows, their links, and so on. This is the only place
    /// rates change, so it is also where all lazy state is reconciled:
    /// every flow and link of a re-solved component is settled to `now`
    /// *before* its new rate takes effect, and a fresh completion
    /// prediction is queued — but only if it undercuts the flow's armed
    /// calendar entry (the ratchet: queued entries are lower bounds, so
    /// a *later* prediction just lets the old entry surface early and
    /// re-arm itself). In steady state (capacity changes and wakeups, no
    /// flow churn) this path performs no heap allocation and almost no
    /// heap traffic; churn itself is O(touched component).
    fn recompute_rates(&mut self) {
        if self.rates.len() < self.topo.paths.len() {
            self.rates.resize(self.topo.paths.len(), 0.0);
        }
        if self.caps.len() < self.links.len() {
            self.caps.resize(self.links.len(), 0.0);
        }
        // A fresh stamp leaves every link and slot unreached.
        self.topo.stamp += 1;
        while let Some(start) = self.topo.dirty_links.pop() {
            if !self.topo.walk(start) {
                continue;
            }
            for &l in &self.topo.comp_links {
                // Settle under the outgoing aggregate rate before
                // zeroing it for re-accumulation below.
                let link = &mut self.links[l as usize];
                link.settle_to(self.now);
                link.rate_sum = 0.0;
                self.caps[l as usize] = link.capacity_at(self.now);
            }
            if self.topo.comp_flows.is_empty() {
                continue;
            }
            max_min_fair_subset_into(
                &self.caps,
                &self.topo.paths,
                &self.topo.comp_flows,
                &mut self.scratch,
                &mut self.rates,
            );
            for &slot in &self.topo.comp_flows {
                let id = self.topo.flow_ids[slot as usize];
                let rate = self.rates[slot as usize];
                let f = self.flows.get_mut(&id).expect("flow exists");
                f.settle_to(self.now);
                f.rate_bps = rate;
                for l in &f.path {
                    self.links[l.0].rate_sum += rate;
                }
                if let Some(t) = f.predicted_completion() {
                    if t < f.armed_at {
                        f.armed_at = t;
                        self.completions.push(Reverse((t, id.0)));
                    }
                }
            }
        }
        self.rates_dirty = false;
        self.compact_calendars();
    }

    /// Drop stale calendar entries in place once a heap outgrows a
    /// multiple of its live population. Without this, entries that
    /// never reach the top (e.g. far-future predictions invalidated by
    /// churn) would accumulate without bound.
    fn compact_calendars(&mut self) {
        if self.completions.len() > 64 + 4 * self.flows.len() {
            let flows = &self.flows;
            // Entries above a flow's armed time are redundant: the
            // armed entry (kept, `t <= armed_at`) already lower-bounds
            // the completion, so the later ones would only ever surface
            // early and re-arm to it.
            self.completions.retain(|Reverse((t, raw))| {
                flows.get(&FlowId(*raw)).map(|f| *t <= f.armed_at).unwrap_or(false)
            });
        }
        if self.cap_events.len() > 64 + 4 * self.links.len() {
            let (epochs, topo) = (&self.cap_epochs, &self.topo);
            self.cap_events.retain(|Reverse((_, l, epoch))| {
                epochs[*l as usize] == *epoch && topo.busy(*l as usize)
            });
        }
    }

    /// Earliest completion-calendar entry, **unvalidated**: the top may
    /// be stale (its flow gone, or a lower bound overtaken by a rate
    /// drop). The stepper treats it as a candidate and validates it
    /// only if it actually gates the step, so steady-state steps driven
    /// by capacity changes or wakeups never pay a flow-table lookup.
    fn peek_completion_top(&self) -> SimTime {
        self.completions.peek().map(|&Reverse((t, _))| t).unwrap_or(SimTime::FAR_FUTURE)
    }

    /// Examine the completion heap's top entry: `Some(t)` if it is the
    /// genuine prediction of a live flow, else repair it — drop a
    /// dead/stalled flow's entry, re-arm an early lower bound at the
    /// flow's current prediction — and return `None`. The clock and all
    /// byte accounting are untouched either way.
    ///
    /// # Panics
    /// Panics if the heap is empty.
    fn validate_completion_top(&mut self) -> Option<SimTime> {
        let &Reverse((t, raw)) = self.completions.peek().expect("nonempty calendar");
        match self.flows.get(&FlowId(raw)).and_then(|f| f.predicted_completion()) {
            // Lower-bound invariant: t <= prediction, so equality means
            // the entry is exact.
            Some(p) if p <= t => Some(t),
            Some(p) => {
                self.completions.pop();
                let f = self.flows.get_mut(&FlowId(raw)).expect("checked above");
                f.armed_at = p;
                self.completions.push(Reverse((p, raw)));
                None
            }
            None => {
                self.completions.pop();
                if let Some(f) = self.flows.get_mut(&FlowId(raw)) {
                    f.armed_at = SimTime::FAR_FUTURE; // stalled: re-armed on next rate
                }
                None
            }
        }
    }

    /// Earliest valid capacity-calendar entry (stale tops dropped).
    fn peek_capacity(&mut self) -> SimTime {
        while let Some(&Reverse((t, l, epoch))) = self.cap_events.peek() {
            let l = l as usize;
            if self.cap_epochs[l] == epoch && self.topo.busy(l) {
                return t;
            }
            self.cap_events.pop();
        }
        SimTime::FAR_FUTURE
    }

    /// Fire every capacity change due at `t`: mark the changed links
    /// dirty and re-arm each fired link at its next change
    /// point (same epoch — only invalidation events bump it).
    fn fire_capacity(&mut self, t: SimTime) {
        while let Some(&Reverse((et, l, epoch))) = self.cap_events.peek() {
            if et > t {
                break;
            }
            self.cap_events.pop();
            let li = l as usize;
            if self.cap_epochs[li] != epoch || !self.topo.busy(li) {
                continue;
            }
            self.topo.dirty_links.push(l);
            self.rates_dirty = true;
            if let Some(next) = self.links[li].process.next_change(t) {
                self.cap_events.push(Reverse((next, l, epoch)));
            }
        }
    }

    /// Reference stepper: earliest predicted completion over all flows.
    fn scan_completion(&self) -> SimTime {
        let mut t = SimTime::FAR_FUTURE;
        for f in self.flows.values() {
            if let Some(tc) = f.predicted_completion() {
                t = t.min(tc);
            }
        }
        t
    }

    /// Reference stepper: earliest upcoming capacity change among links
    /// that carry flows, recording the links that change at that
    /// instant into `cap_candidates` (they are marked dirty if that
    /// event actually fires).
    fn scan_capacity_change(&mut self) -> SimTime {
        self.cap_candidates.clear();
        let mut earliest = SimTime::FAR_FUTURE;
        for (i, link) in self.links.iter().enumerate() {
            if !self.topo.busy(i) {
                continue;
            }
            if let Some(t) = link.process.next_change(self.now) {
                if t < earliest {
                    earliest = t;
                    self.cap_candidates.clear();
                    self.cap_candidates.push(i as u32);
                } else if t == earliest {
                    self.cap_candidates.push(i as u32);
                }
            }
        }
        earliest
    }

    /// Settle a flow that the calendar (or scan) claims is due at the
    /// current instant and classify the outcome. `wake_at_now` gates
    /// the sub-ULP snap: a residual too small to advance the clock
    /// completes only once no wakeup shares the instant (wakeups fire
    /// before snapped completions, exactly like the global-scan
    /// engine's ordering).
    fn resolve_due(&mut self, id: FlowId, wake_at_now: bool) -> Due {
        let now = self.now;
        let f = self.flows.get_mut(&id).expect("due flow exists");
        // The popped entry may be a lower bound the true completion has
        // drifted past (the rate dropped since it was armed), or the
        // flow may have stalled outright. Classify from the prediction
        // *before* settling, so an early surfacing leaves the
        // settlement arithmetic bit-for-bit untouched.
        match f.predicted_completion() {
            Some(p) if p <= now => {}
            _ => return Due::Rearm,
        }
        f.settle_to(now);
        let mut done = f.remaining_bytes <= COMPLETE_EPS_BYTES;
        if !done {
            let eta = f.eta_secs().expect("due flow with bytes left has a rate");
            if now + eta <= now {
                // The residual transfer time is below one ULP of the
                // clock: time cannot advance, so snap to completion
                // instead of spinning — unless a wakeup is due first.
                if wake_at_now {
                    return Due::Gated;
                }
                f.remaining_bytes = 0.0;
                done = true;
            }
        }
        if done {
            Due::Done(self.retire(id))
        } else {
            Due::Rearm
        }
    }

    /// Remove a completed flow from the system and build its event.
    fn retire(&mut self, id: FlowId) -> SimEvent {
        let record = self.flows.remove(&id).expect("retired flow exists");
        self.unregister(&record);
        SimEvent::FlowCompleted { flow: id, record, time: self.now }
    }

    /// Pop the next flow completion due at the current instant, if any.
    ///
    /// Due entries always sit exactly at `now` (predictions are never
    /// in the past, and the stepper stops at the earliest candidate),
    /// so the heap surfaces them in ascending `FlowId` order — the same
    /// order the reference stepper's BTreeMap scan produces.
    fn pop_due_completion(&mut self) -> Option<SimEvent> {
        if self.reference_scan {
            return self.pop_due_completion_scan();
        }
        let wake_at_now =
            self.wakeups.peek().map(|Reverse((t, _, _))| *t <= self.now).unwrap_or(false);
        let mut out = None;
        while let Some(&Reverse((t, raw))) = self.completions.peek() {
            if t > self.now {
                break;
            }
            self.completions.pop();
            let id = FlowId(raw);
            if !self.flows.contains_key(&id) {
                continue;
            }
            match self.resolve_due(id, wake_at_now) {
                Due::Done(ev) => {
                    out = Some(ev);
                    break;
                }
                Due::Gated => self.gated_scratch.push((t, raw)),
                Due::Rearm => {
                    let f = self.flows.get_mut(&id).expect("present above");
                    if let Some(tc) = f.predicted_completion() {
                        f.armed_at = tc;
                        self.completions.push(Reverse((tc, raw)));
                    } else {
                        f.armed_at = SimTime::FAR_FUTURE;
                    }
                }
            }
        }
        while let Some(e) = self.gated_scratch.pop() {
            self.completions.push(Reverse(e));
        }
        out
    }

    /// Reference-stepper variant of [`Simulation::pop_due_completion`]:
    /// scan the flow map in id order for the first due flow, resuming
    /// past gated / re-armed ones.
    fn pop_due_completion_scan(&mut self) -> Option<SimEvent> {
        let wake_at_now =
            self.wakeups.peek().map(|Reverse((t, _, _))| *t <= self.now).unwrap_or(false);
        let mut after: Option<FlowId> = None;
        loop {
            let now = self.now;
            let due = match after {
                None => self
                    .flows
                    .iter()
                    .find(|(_, f)| matches!(f.predicted_completion(), Some(t) if t <= now)),
                Some(prev) => self
                    .flows
                    .range((Bound::Excluded(prev), Bound::Unbounded))
                    .find(|(_, f)| matches!(f.predicted_completion(), Some(t) if t <= now)),
            }
            .map(|(id, _)| *id);
            let id = due?;
            match self.resolve_due(id, wake_at_now) {
                Due::Done(ev) => return Some(ev),
                Due::Gated | Due::Rearm => after = Some(id),
            }
        }
    }

    /// Advance to, and return, the next externally visible event.
    ///
    /// Returns `None` when nothing can ever happen again: no wakeups are
    /// pending and either no flows are active or every active flow is
    /// permanently stalled (rate 0 with no future capacity change).
    pub fn next_event(&mut self) -> Option<SimEvent> {
        self.step(None)
    }

    /// Like [`Simulation::next_event`] but never advances past `limit`:
    /// if the next event would occur after it, the simulation state is
    /// advanced exactly to `limit` and `None` is returned.
    pub fn next_event_until(&mut self, limit: SimTime) -> Option<SimEvent> {
        self.step(Some(limit))
    }

    fn step(&mut self, limit: Option<SimTime>) -> Option<SimEvent> {
        let mut iters: u64 = 0;
        loop {
            iters += 1;
            if iters > 10_000_000 {
                self.panic_stuck();
            }
            // Zero-time completions first (e.g., several flows finishing
            // at the same instant, or zero-sized flows).
            if let Some(ev) = self.pop_due_completion() {
                return Some(ev);
            }
            if self.rates_dirty {
                self.recompute_rates();
                continue; // a rate change may complete an infinite-rate flow
            }

            // Candidate event times.
            let t_complete = if self.reference_scan {
                self.scan_completion()
            } else {
                self.peek_completion_top()
            };
            let t_capacity = if self.reference_scan {
                self.scan_capacity_change()
            } else {
                self.peek_capacity()
            };
            let t_wake =
                self.wakeups.peek().map(|Reverse((t, _, _))| *t).unwrap_or(SimTime::FAR_FUTURE);

            let t_next = t_complete.min(t_capacity).min(t_wake);
            if t_next >= SimTime::FAR_FUTURE {
                return None; // permanently idle or stalled
            }
            // The completion candidate is an unvalidated heap top:
            // verify it only now that it would actually gate the step.
            // A stale top is repaired *without* advancing the clock and
            // the step retried, so spurious instants never leak out.
            if !self.reference_scan
                && t_next == t_complete
                && self.validate_completion_top().is_none()
            {
                continue;
            }
            if let Some(lim) = limit {
                if t_next > lim {
                    // Advance exactly to the limit and stop. No event
                    // fired in between, so no capacity changed and all
                    // rates (hence all lazy anchors) remain valid.
                    self.now = lim;
                    return None;
                }
            }
            self.now = t_next;

            if t_next == t_capacity {
                // Mark the changed links dirty; the recompute happens
                // lazily at the next query or step, which also covers a
                // coincident wakeup below.
                if self.reference_scan {
                    self.topo.dirty_links.extend_from_slice(&self.cap_candidates);
                    self.rates_dirty = true;
                } else {
                    self.fire_capacity(t_next);
                }
            }
            if t_next == t_wake {
                let Reverse((time, _, token)) = self.wakeups.pop().expect("peeked");
                return Some(SimEvent::Wakeup { token: WakeToken(token), time });
            }
            // Completions (if any) surface at the top of the loop.
        }
    }

    /// Stuck-stepper diagnostic. Kept out of the hot loop: the message
    /// is only built here, and only a bounded prefix of the flow table
    /// goes into it.
    #[cold]
    #[inline(never)]
    fn panic_stuck(&self) -> ! {
        use std::fmt::Write;
        let mut dump = String::new();
        for (id, f) in self.flows.iter().take(16) {
            let _ = write!(dump, " ({}, {}, {})", id.0, f.rate_bps, f.remaining_bytes);
        }
        if self.flows.len() > 16 {
            let _ = write!(dump, " … and {} more", self.flows.len() - 16);
        }
        panic!("engine stuck: now={}, flows (id, rate, remaining):{}", self.now, dump);
    }

    /// Process and discard events until virtual time reaches `until`.
    ///
    /// Events strictly before `until` are dropped; the simulation clock
    /// is left exactly at `until`. Useful for warm-up phases.
    pub fn run_until(&mut self, until: SimTime) {
        while self.next_event_until(until).is_some() {}
        if self.now < until {
            if self.rates_dirty {
                self.recompute_rates();
            }
            self.now = until;
        }
    }

    /// Current aggregate rate crossing `link` (bits/second), summing
    /// the fair-share rates of all flows that traverse it. Recomputes
    /// rates if the flow set changed since the last event.
    pub fn link_rate(&mut self, link: LinkId) -> f64 {
        if self.rates_dirty {
            self.recompute_rates();
        }
        self.links[link.0].rate_sum
    }

    /// Step via the retained global-scan reference logic instead of the
    /// calendars.
    ///
    /// The reference stepper shares every byte of the settlement
    /// arithmetic with the calendar engine — it differs only in *how*
    /// the next event time is found (exhaustive scans over all flows
    /// and links, exactly like the pre-calendar engine). The oracle
    /// tests run both modes over identical scenarios and assert the
    /// event streams are bit-identical.
    #[doc(hidden)]
    pub fn use_reference_stepper(&mut self, on: bool) {
        self.reference_scan = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::DiurnalProfile;

    fn mbps(x: f64) -> f64 {
        x * 1e6
    }

    #[test]
    fn single_flow_transfer_time() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", CapacityProcess::constant(mbps(8.0)));
        sim.start_flow(vec![l], 1_000_000.0); // 8 Mbit over 8 Mbps = 1 s
        let ev = sim.next_event().unwrap();
        assert!((ev.time().secs() - 1.0).abs() < 1e-9);
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", CapacityProcess::constant(mbps(8.0)));
        // Two 1 MB flows: share 4 Mbps each. First completes at 2 s
        // (if equal) — equal sizes tie; both complete at 2 s.
        let a = sim.start_flow(vec![l], 1_000_000.0);
        let b = sim.start_flow(vec![l], 500_000.0);
        // b needs 4 Mbit at 4 Mbps -> 1 s. Then a has 0.5 MB left at 8 Mbps -> +0.5 s.
        let e1 = sim.next_event().unwrap();
        match &e1 {
            SimEvent::FlowCompleted { flow, .. } => assert_eq!(*flow, b),
            _ => panic!(),
        }
        assert!((e1.time().secs() - 1.0).abs() < 1e-9);
        let e2 = sim.next_event().unwrap();
        match &e2 {
            SimEvent::FlowCompleted { flow, .. } => assert_eq!(*flow, a),
            _ => panic!(),
        }
        assert!((e2.time().secs() - 1.5).abs() < 1e-9, "{}", e2.time());
    }

    #[test]
    fn parallel_paths_aggregate() {
        // The 3GOL core effect: an item on ADSL and an item on a phone
        // proceed independently at full speed.
        let mut sim = Simulation::new();
        let adsl = sim.add_link("adsl", CapacityProcess::constant(mbps(2.0)));
        let phone = sim.add_link("phone", CapacityProcess::constant(mbps(1.0)));
        sim.start_flow(vec![adsl], 250_000.0); // 2 Mbit / 2 Mbps = 1 s
        sim.start_flow(vec![phone], 250_000.0); // 2 Mbit / 1 Mbps = 2 s
        let e1 = sim.next_event().unwrap();
        let e2 = sim.next_event().unwrap();
        assert!((e1.time().secs() - 1.0).abs() < 1e-9);
        assert!((e2.time().secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_change_mid_flow() {
        let mut sim = Simulation::new();
        let l = sim.add_link(
            "l",
            CapacityProcess::piecewise(vec![
                (SimTime::ZERO, mbps(8.0)),
                (SimTime::from_secs(1.0), mbps(4.0)),
            ]),
        );
        // 2 MB = 16 Mbit. 1 s at 8 Mbps -> 8 Mbit done; 8 Mbit left at 4 Mbps -> 2 s more.
        sim.start_flow(vec![l], 2_000_000.0);
        let ev = sim.next_event().unwrap();
        assert!((ev.time().secs() - 3.0).abs() < 1e-9, "{}", ev.time());
    }

    #[test]
    fn wakeups_fire_in_order() {
        let mut sim = Simulation::new();
        sim.schedule_wakeup(SimTime::from_secs(2.0), WakeToken(2));
        sim.schedule_wakeup(SimTime::from_secs(1.0), WakeToken(1));
        sim.schedule_wakeup(SimTime::from_secs(1.0), WakeToken(10)); // FIFO tie
        let e1 = sim.next_event().unwrap();
        let e2 = sim.next_event().unwrap();
        let e3 = sim.next_event().unwrap();
        match (e1, e2, e3) {
            (
                SimEvent::Wakeup { token: t1, .. },
                SimEvent::Wakeup { token: t2, .. },
                SimEvent::Wakeup { token: t3, .. },
            ) => {
                assert_eq!(t1, WakeToken(1));
                assert_eq!(t2, WakeToken(10));
                assert_eq!(t3, WakeToken(2));
            }
            _ => panic!("expected wakeups"),
        }
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn cancel_returns_partial_progress() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", CapacityProcess::constant(mbps(8.0)));
        let f = sim.start_flow(vec![l], 1_000_000.0);
        sim.schedule_wakeup(SimTime::from_secs(0.5), WakeToken(0));
        let _ = sim.next_event().unwrap(); // wakeup at 0.5 s
        let record = sim.cancel_flow(f).unwrap();
        assert!((record.transferred_bytes() - 500_000.0).abs() < 1.0);
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn cancel_unknown_flow_errors() {
        let mut sim = Simulation::new();
        assert!(matches!(sim.cancel_flow(FlowId(99)), Err(SimError::UnknownFlow(99))));
    }

    #[test]
    fn zero_sized_flow_completes_immediately() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", CapacityProcess::constant(mbps(1.0)));
        let f = sim.start_flow(vec![l], 0.0);
        let ev = sim.next_event().unwrap();
        match ev {
            SimEvent::FlowCompleted { flow, time, .. } => {
                assert_eq!(flow, f);
                assert_eq!(time, SimTime::ZERO);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn invalid_flows_rejected() {
        let mut sim = Simulation::new();
        assert!(matches!(sim.try_start_flow(vec![], 1.0, None), Err(SimError::EmptyPath)));
        assert!(matches!(
            sim.try_start_flow(vec![LinkId(7)], 1.0, None),
            Err(SimError::UnknownLink(7))
        ));
        let l = sim.add_link("l", CapacityProcess::constant(1.0));
        assert!(matches!(
            sim.try_start_flow(vec![l], f64::NAN, None),
            Err(SimError::InvalidSize(_))
        ));
        assert!(matches!(sim.try_start_flow(vec![l], -3.0, None), Err(SimError::InvalidSize(_))));
    }

    #[test]
    fn stalled_flow_yields_none() {
        let mut sim = Simulation::new();
        let l = sim.add_link("dead", CapacityProcess::constant(0.0));
        sim.start_flow(vec![l], 100.0);
        assert!(sim.next_event().is_none());
        assert_eq!(sim.active_flow_count(), 1);
    }

    #[test]
    fn rate_cap_respected() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", CapacityProcess::constant(mbps(8.0)));
        sim.start_capped_flow(vec![l], 1_000_000.0, mbps(2.0)); // 8 Mbit at 2 Mbps = 4 s
        let ev = sim.next_event().unwrap();
        assert!((ev.time().secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn link_accounting_tracks_bytes() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", CapacityProcess::constant(mbps(8.0)));
        sim.start_flow(vec![l], 1_000_000.0);
        let _ = sim.next_event();
        assert!((sim.link(l).bytes_carried - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", CapacityProcess::constant(mbps(8.0)));
        let f = sim.start_flow(vec![l], 10_000_000.0);
        sim.run_until(SimTime::from_secs(3.0));
        assert_eq!(sim.now(), SimTime::from_secs(3.0));
        let flow = sim.flow(f).unwrap();
        assert!((flow.transferred_bytes() - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    fn run_until_stops_at_boundary_with_stochastic_links() {
        // Regression: capacity-change events are internal, so a naive
        // run_until could let one next_event call run far past the
        // boundary. The clock must stop exactly at the limit and the
        // carried bytes must match rate × time.
        let mut sim = Simulation::new();
        let l = sim.add_link(
            "s",
            CapacityProcess::stochastic(mbps(0.8), 0.2, 1.0, DiurnalProfile::flat(), 5),
        );
        sim.start_flow(vec![l], 50_000_000.0);
        sim.run_until(SimTime::from_secs(30.0));
        assert_eq!(sim.now(), SimTime::from_secs(30.0));
        let carried = sim.link(l).bytes_carried;
        // ~0.8 Mbps × 30 s ≈ 3 MB, well below the 50 MB flow size.
        assert!(carried > 1_500_000.0 && carried < 6_000_000.0, "carried {carried}");
    }

    #[test]
    fn next_event_until_respects_limit() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", CapacityProcess::constant(mbps(8.0)));
        sim.start_flow(vec![l], 1_000_000.0); // completes at 1 s
        assert!(sim.next_event_until(SimTime::from_secs(0.5)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(0.5));
        let ev = sim.next_event_until(SimTime::from_secs(2.0)).unwrap();
        assert!((ev.time().secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stochastic_capacity_transfer_is_deterministic() {
        let run = || {
            let mut sim = Simulation::new();
            let l = sim.add_link(
                "hspa",
                CapacityProcess::stochastic(mbps(2.0), 0.3, 5.0, DiurnalProfile::flat(), 99),
            );
            sim.start_flow(vec![l], 2_000_000.0);
            sim.next_event().unwrap().time().secs()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // Roughly 2 MB at ~2 Mbps ≈ 8 s.
        assert!(a > 4.0 && a < 16.0, "t = {a}");
    }

    #[test]
    fn link_rate_reports_aggregate() {
        let mut sim = Simulation::new();
        let l = sim.add_link("l", CapacityProcess::constant(mbps(6.0)));
        sim.start_flow(vec![l], 1e9);
        sim.start_flow(vec![l], 1e9);
        assert!((sim.link_rate(l) - mbps(6.0)).abs() < 1.0);
        let empty = sim.add_link("e", CapacityProcess::constant(mbps(1.0)));
        assert_eq!(sim.link_rate(empty), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Byte conservation: when every flow completes, each link
            /// carried exactly the sum of the sizes of the flows that
            /// traversed it.
            #[test]
            fn bytes_are_conserved(
                n_links in 1usize..5,
                flows in proptest::collection::vec(
                    (proptest::collection::btree_set(0usize..5, 1..3), 1_000.0f64..1e6),
                    1..10,
                ),
            ) {
                let mut sim = Simulation::new();
                let links: Vec<LinkId> = (0..n_links)
                    .map(|i| sim.add_link(format!("l{i}"), CapacityProcess::constant(1e6 + i as f64 * 3e5)))
                    .collect();
                let mut expected = vec![0.0f64; n_links];
                let mut total = 0usize;
                for (link_set, size) in &flows {
                    let path: Vec<LinkId> = link_set
                        .iter()
                        .filter(|&&l| l < n_links)
                        .map(|&l| links[l])
                        .collect();
                    if path.is_empty() {
                        continue;
                    }
                    for l in &path {
                        expected[l.index()] += *size;
                    }
                    sim.start_flow(path, *size);
                    total += 1;
                }
                let mut completions = 0;
                while let Some(ev) = sim.next_event() {
                    if matches!(ev, SimEvent::FlowCompleted { .. }) {
                        completions += 1;
                    }
                }
                prop_assert_eq!(completions, total);
                for (i, l) in links.iter().enumerate() {
                    prop_assert!(
                        (sim.link(*l).bytes_carried - expected[i]).abs() < 1.0,
                        "link {} carried {} expected {}",
                        i, sim.link(*l).bytes_carried, expected[i]
                    );
                }
            }

            /// Event-by-event determinism for identical scenarios.
            #[test]
            fn identical_runs_produce_identical_events(seed in 0u64..200) {
                let run = |seed: u64| -> Vec<(u64, f64)> {
                    let mut sim = Simulation::new();
                    let l = sim.add_link(
                        "s",
                        CapacityProcess::stochastic(
                            2e6, 0.4, 1.0, DiurnalProfile::flat(), seed,
                        ),
                    );
                    for k in 0..4 {
                        sim.start_flow(vec![l], 100_000.0 * (k + 1) as f64);
                    }
                    let mut out = Vec::new();
                    while let Some(ev) = sim.next_event() {
                        if let SimEvent::FlowCompleted { flow, time, .. } = ev {
                            out.push((flow.raw(), time.secs()));
                        }
                    }
                    out
                };
                prop_assert_eq!(run(seed), run(seed));
            }
        }
    }

    #[test]
    fn shared_bottleneck_with_side_link() {
        // Phone flow traverses both its radio share and the cell channel.
        let mut sim = Simulation::new();
        let cell = sim.add_link("cell", CapacityProcess::constant(mbps(3.0)));
        let radio_a = sim.add_link("ra", CapacityProcess::constant(mbps(2.0)));
        let radio_b = sim.add_link("rb", CapacityProcess::constant(mbps(2.0)));
        // Both flows limited by the 3 Mbps cell: 1.5 Mbps each.
        sim.start_flow(vec![radio_a, cell], 750_000.0);
        sim.start_flow(vec![radio_b, cell], 750_000.0);
        let e1 = sim.next_event().unwrap();
        // 6 Mbit at 1.5 Mbps = 4 s.
        assert!((e1.time().secs() - 4.0).abs() < 1e-9, "{}", e1.time());
    }
}
