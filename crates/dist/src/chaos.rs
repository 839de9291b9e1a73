//! Deterministic transport chaos: adversarial networks for the driver.
//!
//! [`FaultPlan`](crate::FaultPlan) says what a *node* does wrong: it
//! crashes or stalls. A [`ChaosPlan`] says what the *wire* does wrong —
//! per-frame delay, duplication, reordering, byte corruption and one-way
//! partitions on the node→driver event path, and dropped hub relays on
//! the driver→node path — and [`ChaosTransport`] applies it as a wrapper
//! around any [`Transport`]. Every frame between nodes crosses the
//! driver on both backends (hub rows go by relay), so the channel and
//! socket backends run under identical adversaries.
//!
//! # Determinism and liveness
//!
//! Every decision (is event `seq` from node `k` delayed, and for how
//! long? duplicated? corrupted? is control message `seq` toward node `k`
//! a hub relay to drop?) is a pure function of the plan's seed and the
//! message's coordinates, so a given plan makes the same decisions on
//! every run. The wall-clock *interleaving* of releases still depends on
//! thread timing, as it does on any real network; the recovery invariant
//! under test is precisely that the final matrix is bit-identical
//! regardless.
//!
//! Chaos must never break liveness, because the gather protocol has no
//! retransmit timer (the driver only re-requests rows that arrive
//! corrupted, and the watchdog is off by default). Three rules follow:
//!
//! * events are **held, never dropped** — a delay or partition defers
//!   delivery by a bounded number of driver polls, after which the event
//!   goes through verbatim;
//! * driver→node control messages are never delayed, and the only one
//!   chaos may drop is a `Hub` relay: a hub row is an optimization, so
//!   losing one costs row reuse, never a row. `Assign`, `Resend` and
//!   `Shutdown` are never dropped — there is no retransmit to recover
//!   them. Chaos may *duplicate* control, which the node side already
//!   tolerates — duplicate `Assign`s dedup against the pending queue, a
//!   duplicate `Resend` costs one extra delivery, a duplicate `Hub` is
//!   stored twice; duplicate `Shutdown`s are not generated at all;
//! * corruption flips one payload bit and leaves the sender's checksum
//!   alone, so the receiver *rejects* the row — the driver for a gather
//!   row, the peer for a relayed hub row — and the ordinary
//!   re-send/re-deal machinery, not silence, restores progress.
//!
//! `Stats` events pass through untouched: they are a teardown courtesy
//! outside the gather protocol, and holding one past `finish()` would
//! silently zero a node's reported counters.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::transport::{ControlSink, NodeControl, NodeEvent, Polled, Transport};

/// A reproducible schedule of transport-level chaos for one distributed
/// run. The default plan injects nothing.
///
/// ```
/// use parapsp_dist::ChaosPlan;
///
/// let plan = ChaosPlan::seeded(7)
///     .with_delay(0.3, 8)              // 30% of events held up to 8 polls
///     .with_duplicate_probability(0.2) // 20% of events delivered twice
///     .with_corrupt_probability(0.1)   // 10% get a payload bit flip
///     .with_hub_drop_probability(0.2)  // 20% of hub relays vanish
///     .partition_node(1, 20, 40);      // node 1 blackholed for polls 20..60
/// assert!(!plan.is_inert());
/// assert_eq!(ChaosPlan::default(), ChaosPlan::seeded(0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPlan {
    seed: u64,
    delay_probability: f64,
    max_delay_polls: u64,
    duplicate_probability: f64,
    corrupt_probability: f64,
    control_duplicate_probability: f64,
    hub_drop_probability: f64,
    /// One-way (node→driver) partitions: `(node, from_poll, polls)`.
    partitions: Vec<(usize, u64, u64)>,
}

impl ChaosPlan {
    /// A plan with no chaos; the seed only matters once probabilities or
    /// partitions are added.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Holds each node→driver event independently with probability `p`,
    /// for a deterministically drawn `1..=max_polls` driver polls.
    /// Different per-event delays are what produce *reordering*: an event
    /// held longer than its successor is overtaken by it.
    ///
    /// # Panics
    /// If `p` is outside `[0, 1]`, or `p > 0` with `max_polls == 0`.
    pub fn with_delay(mut self, p: f64, max_polls: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "delay probability {p} outside [0, 1]"
        );
        assert!(
            p == 0.0 || max_polls > 0,
            "a positive delay probability needs max_polls >= 1"
        );
        self.delay_probability = p;
        self.max_delay_polls = max_polls;
        self
    }

    /// Delivers each node→driver event twice with probability `p` (the
    /// duplicate is released on the next poll, so it may arrive before a
    /// delayed original). The driver deduplicates accepted rows, so
    /// duplicates only cost bandwidth accounting.
    ///
    /// # Panics
    /// If `p` is outside `[0, 1]`.
    pub fn with_duplicate_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability {p} outside [0, 1]"
        );
        self.duplicate_probability = p;
        self
    }

    /// Flips one payload bit of each node→driver row event independently
    /// with probability `q`, leaving the sender's checksum alone so the
    /// receiver rejects the row. Must stay below 1 or re-delivery could
    /// never succeed.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1)`.
    pub fn with_corrupt_probability(mut self, q: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&q),
            "corrupt probability {q} outside [0, 1)"
        );
        self.corrupt_probability = q;
        self
    }

    /// Duplicates each driver→node control message (except `Shutdown`)
    /// independently with probability `p`. Control is never delayed, and
    /// only a hub relay is ever dropped
    /// ([`with_hub_drop_probability`](Self::with_hub_drop_probability)) —
    /// there is no retransmit path to recover a lost `Assign`.
    ///
    /// # Panics
    /// If `p` is outside `[0, 1]`.
    pub fn with_control_duplicate_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "control duplicate probability {p} outside [0, 1]"
        );
        self.control_duplicate_probability = p;
        self
    }

    /// Drops each hub relay (a `Hub` control message from the driver to
    /// a peer) independently with probability `p`. A dropped hub row
    /// costs its receiver reuse, never a row, so `p` may be 1.
    ///
    /// # Panics
    /// If `p` is outside `[0, 1]`.
    pub fn with_hub_drop_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "hub drop probability {p} outside [0, 1]"
        );
        self.hub_drop_probability = p;
        self
    }

    /// Blackholes `node`'s event path for `polls` driver polls starting
    /// at poll `from_poll`: events arriving inside the window are held
    /// until it closes (a one-way node→driver partition that heals).
    pub fn partition_node(mut self, node: usize, from_poll: u64, polls: u64) -> Self {
        self.partitions.push((node, from_poll, polls));
        self
    }

    /// Whether this plan injects no chaos at all.
    pub fn is_inert(&self) -> bool {
        self.delay_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.corrupt_probability == 0.0
            && self.control_duplicate_probability == 0.0
            && self.hub_drop_probability == 0.0
            && self.partitions.is_empty()
    }

    /// The poll at which every partition window covering `(node, clock)`
    /// has healed, or `clock` itself when none is active.
    fn partition_release(&self, node: usize, clock: u64) -> u64 {
        self.partitions
            .iter()
            .filter(|&&(who, from, polls)| {
                who == node && clock >= from && clock < from.saturating_add(polls)
            })
            .map(|&(_, from, polls)| from.saturating_add(polls))
            .max()
            .unwrap_or(clock)
    }

    /// How many polls event `seq` from `node` is held (0 = no delay).
    fn delay_polls(&self, node: usize, seq: u64) -> u64 {
        if self.delay_probability == 0.0 {
            return 0;
        }
        let mut rng = self.decision_rng(0x4445_4C59, node as u64, seq);
        if rng.random_bool(self.delay_probability) {
            rng.random_range(1..=self.max_delay_polls.max(1))
        } else {
            0
        }
    }

    /// Whether event `seq` from `node` is delivered twice.
    fn duplicates(&self, node: usize, seq: u64) -> bool {
        self.duplicate_probability > 0.0
            && self
                .decision_rng(0x4455_5032, node as u64, seq)
                .random_bool(self.duplicate_probability)
    }

    /// Whether event `seq` from `node` gets a payload bit flip, and which
    /// `(word, bit)` coordinates the flip lands on in a `len`-word row.
    fn corruption(&self, node: usize, seq: u64, len: usize) -> Option<(usize, u32)> {
        if self.corrupt_probability == 0.0 || len == 0 {
            return None;
        }
        let mut rng = self.decision_rng(0x4352_5054, node as u64, seq);
        if !rng.random_bool(self.corrupt_probability) {
            return None;
        }
        Some((rng.random_range(0..len), rng.random_range(0..32u32)))
    }

    /// Whether control message `seq` toward `node` is duplicated.
    fn duplicates_control(&self, node: usize, seq: u64) -> bool {
        self.control_duplicate_probability > 0.0
            && self
                .decision_rng(0x4344_5550, node as u64, seq)
                .random_bool(self.control_duplicate_probability)
    }

    /// Whether control message `seq` toward `node`, a hub relay, is lost.
    fn drops_hub(&self, node: usize, seq: u64) -> bool {
        self.hub_drop_probability > 0.0
            && self
                .decision_rng(0x4844_524F, node as u64, seq)
                .random_bool(self.hub_drop_probability)
    }

    /// A fresh generator keyed on the plan seed plus the decision
    /// coordinates (same mixing discipline as `FaultPlan`).
    fn decision_rng(&self, salt: u64, a: u64, b: u64) -> StdRng {
        let mut key = self.seed ^ salt.rotate_left(32);
        for word in [a, b] {
            key ^= word.wrapping_add(0x9E37_79B9_7F4A_7C15);
            key = (key ^ (key >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            key = (key ^ (key >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            key ^= key >> 31;
        }
        StdRng::seed_from_u64(key)
    }
}

/// An event chaos is holding: released once the driver's poll clock
/// reaches `release_at`.
#[derive(Debug)]
struct Held {
    release_at: u64,
    event: NodeEvent,
}

/// Applies a [`ChaosPlan`] to any [`Transport`], borrowing the real
/// backend for the duration of the driver loop. The driver's polls are
/// the chaos clock: every `try_event`/`event_timeout` call advances it by
/// one, which is what bounds every hold — as long as rows are missing the
/// driver keeps polling, so every held event is eventually released.
pub(crate) struct ChaosTransport<'a, T: Transport> {
    inner: &'a mut T,
    plan: ChaosPlan,
    /// Driver polls observed so far (the release clock).
    clock: u64,
    /// Per-node arrival index, the `seq` decision coordinate.
    seq: Vec<u64>,
    /// Outbound control messages per node, the control `seq` coordinate.
    control_seq: Vec<u64>,
    /// Held events per node, arrival order (releases may reorder).
    pending: Vec<VecDeque<Held>>,
    /// Nodes whose inner stream already reported `Down`; their held
    /// events are flushed before the death is passed on.
    down: Vec<bool>,
}

impl<'a, T: Transport> ChaosTransport<'a, T> {
    pub(crate) fn new(inner: &'a mut T, plan: ChaosPlan, nodes: usize) -> Self {
        ChaosTransport {
            inner,
            plan,
            clock: 0,
            seq: vec![0; nodes],
            control_seq: vec![0; nodes],
            pending: (0..nodes).map(|_| VecDeque::new()).collect(),
            down: vec![false; nodes],
        }
    }

    /// Everything still held when the driver loop ended (e.g. duplicates
    /// of the final rows), for the caller to fold into the driver state.
    pub(crate) fn into_pending(self) -> Vec<(usize, NodeEvent)> {
        let mut held = Vec::new();
        for (k, queue) in self.pending.into_iter().enumerate() {
            for entry in queue {
                held.push((k, entry.event));
            }
        }
        held
    }

    /// Removes and returns the first held event for `k` whose release
    /// time has arrived.
    fn pop_due(&mut self, k: usize) -> Option<NodeEvent> {
        let due = self.pending[k]
            .iter()
            .position(|held| held.release_at <= self.clock)?;
        Some(
            self.pending[k]
                .remove(due)
                .expect("position is in range")
                .event,
        )
    }

    /// Applies per-event chaos to a fresh arrival from `k`. Returns the
    /// event when it passes straight through, or `None` when it is held.
    fn admit(&mut self, k: usize, mut event: NodeEvent) -> Option<NodeEvent> {
        // Stats are a teardown courtesy, not part of the gather protocol:
        // holding one past the drain would silently zero a node's report.
        if matches!(event, NodeEvent::Stats(_)) {
            return Some(event);
        }
        let seq = self.seq[k];
        self.seq[k] += 1;

        let row = match &mut event {
            NodeEvent::Row(msg) => Some(&mut msg.row),
            NodeEvent::HubFwd { msg, .. } => Some(&mut msg.row),
            NodeEvent::Stats(_) => None,
        };
        if let Some(row) = row {
            if let Some((word, bit)) = self.plan.corruption(k, seq, row.len()) {
                // The checksum is left alone, so the receiver rejects the
                // row and the re-send machinery restores progress.
                row[word] ^= 1 << bit;
            }
        }
        if self.plan.duplicates(k, seq) {
            self.pending[k].push_back(Held {
                release_at: self.clock,
                event: event.clone(),
            });
        }
        let release_at = (self.clock + self.plan.delay_polls(k, seq))
            .max(self.plan.partition_release(k, self.clock));
        if release_at > self.clock {
            self.pending[k].push_back(Held { release_at, event });
            return None;
        }
        Some(event)
    }

    /// The shared poll body behind both [`Transport`] methods.
    fn poll(&mut self, k: usize, fetch: impl FnOnce(&mut T) -> Polled) -> Polled {
        self.clock += 1;
        if let Some(event) = self.pop_due(k) {
            return Polled::Event(event);
        }
        if self.down[k] {
            // The stream is gone: flush held events first, then concede.
            return match self.pending[k].pop_front() {
                Some(held) => Polled::Event(held.event),
                None => Polled::Down,
            };
        }
        match fetch(self.inner) {
            Polled::Event(event) => match self.admit(k, event) {
                Some(event) => Polled::Event(event),
                None => Polled::Empty,
            },
            Polled::Empty => Polled::Empty,
            Polled::Down => {
                self.down[k] = true;
                match self.pending[k].pop_front() {
                    Some(held) => Polled::Event(held.event),
                    None => Polled::Down,
                }
            }
        }
    }
}

impl<T: Transport> ControlSink for ChaosTransport<'_, T> {
    fn control(&mut self, node: usize, message: NodeControl) {
        let seq = self.control_seq[node];
        self.control_seq[node] += 1;
        if matches!(message, NodeControl::Hub(_)) && self.plan.drops_hub(node, seq) {
            return;
        }
        // Shutdown is exempt: a duplicate is harmless but pointless, and
        // exempting it keeps "one Shutdown per node" an invariant tests
        // can rely on.
        if !matches!(message, NodeControl::Shutdown) && self.plan.duplicates_control(node, seq) {
            self.inner.control(node, message.clone());
        }
        self.inner.control(node, message);
    }
}

impl<T: Transport> Transport for ChaosTransport<'_, T> {
    fn try_event(&mut self, node: usize) -> Polled {
        self.poll(node, |inner| inner.try_event(node))
    }

    fn event_timeout(&mut self, node: usize, timeout: std::time::Duration) -> Polled {
        self.poll(node, |inner| inner.event_timeout(node, timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RowMessage;
    use std::time::Duration;

    /// A scripted inner transport: one node, a queue of events, then Down.
    struct Scripted {
        events: VecDeque<NodeEvent>,
        controls: Vec<NodeControl>,
    }

    impl ControlSink for Scripted {
        fn control(&mut self, _node: usize, message: NodeControl) {
            self.controls.push(message);
        }
    }

    impl Transport for Scripted {
        fn try_event(&mut self, _node: usize) -> Polled {
            match self.events.pop_front() {
                Some(event) => Polled::Event(event),
                None => Polled::Down,
            }
        }

        fn event_timeout(&mut self, node: usize, _timeout: Duration) -> Polled {
            self.try_event(node)
        }
    }

    fn row_event(source: u32) -> NodeEvent {
        NodeEvent::Row(RowMessage::new(source, vec![source; 4]))
    }

    fn sources(events: &[NodeEvent]) -> Vec<u32> {
        events
            .iter()
            .map(|event| match event {
                NodeEvent::Row(msg) => msg.source,
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    /// Pumps `try_event` until Down, collecting everything delivered.
    fn pump(chaos: &mut ChaosTransport<'_, impl Transport>) -> Vec<NodeEvent> {
        let mut delivered = Vec::new();
        let mut idle = 0;
        while idle < 10_000 {
            match chaos.try_event(0) {
                Polled::Event(event) => {
                    delivered.push(event);
                    idle = 0;
                }
                Polled::Empty => idle += 1,
                Polled::Down => return delivered,
            }
        }
        panic!("chaos transport stopped making progress");
    }

    #[test]
    fn inert_plan_is_a_passthrough() {
        let mut inner = Scripted {
            events: (0..5).map(row_event).collect(),
            controls: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(&mut inner, ChaosPlan::default(), 1);
        let delivered = pump(&mut chaos);
        assert_eq!(sources(&delivered), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_event_survives_delay_duplication_and_partition() {
        let plan = ChaosPlan::seeded(11)
            .with_delay(0.5, 6)
            .with_duplicate_probability(0.4)
            .partition_node(0, 3, 10);
        let mut inner = Scripted {
            events: (0..20).map(row_event).collect(),
            controls: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(&mut inner, plan, 1);
        let mut delivered = sources(&pump(&mut chaos));
        delivered.sort_unstable();
        delivered.dedup();
        assert_eq!(
            delivered,
            (0..20).collect::<Vec<u32>>(),
            "held is not dropped: every distinct event must come out"
        );
    }

    #[test]
    fn delays_reorder_but_releases_are_deterministic_decisions() {
        let plan = ChaosPlan::seeded(5).with_delay(0.6, 8);
        let run = || {
            let mut inner = Scripted {
                events: (0..30).map(row_event).collect(),
                controls: Vec::new(),
            };
            let mut chaos = ChaosTransport::new(&mut inner, plan.clone(), 1);
            sources(&pump(&mut chaos))
        };
        let first = run();
        assert_eq!(first, run(), "same plan, same poll pattern, same order");
        assert_ne!(
            first,
            (0..30).collect::<Vec<u32>>(),
            "a 60% delay plan over 30 events should reorder at least once"
        );
    }

    #[test]
    fn corruption_breaks_the_checksum_but_not_the_frame() {
        let plan = ChaosPlan::seeded(3).with_corrupt_probability(0.5);
        let mut inner = Scripted {
            events: (0..40).map(row_event).collect(),
            controls: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(&mut inner, plan, 1);
        let delivered = pump(&mut chaos);
        assert_eq!(delivered.len(), 40);
        let rejected = delivered
            .iter()
            .filter(|event| match event {
                NodeEvent::Row(msg) => !msg.verify(),
                _ => false,
            })
            .count();
        assert!(
            (8..=32).contains(&rejected),
            "about half of 40 rows should fail verification, got {rejected}"
        );
    }

    #[test]
    fn control_duplication_never_touches_shutdown() {
        let plan = ChaosPlan::seeded(9).with_control_duplicate_probability(1.0);
        let mut inner = Scripted {
            events: VecDeque::new(),
            controls: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(&mut inner, plan, 1);
        chaos.control(0, NodeControl::Assign(4));
        chaos.control(0, NodeControl::Resend(4));
        chaos.control(0, NodeControl::Shutdown);
        let shapes: Vec<&'static str> = inner
            .controls
            .iter()
            .map(|c| match c {
                NodeControl::Assign(_) => "assign",
                NodeControl::Resend(_) => "resend",
                NodeControl::Shutdown => "shutdown",
                NodeControl::Hub(_) => "hub",
            })
            .collect();
        assert_eq!(
            shapes,
            vec!["assign", "assign", "resend", "resend", "shutdown"],
            "p=1 duplicates everything except Shutdown"
        );
    }

    #[test]
    fn down_flushes_held_events_before_reporting_death() {
        // Partition the node for a long window, then kill the stream:
        // the held rows must still come out ahead of Down.
        let plan = ChaosPlan::seeded(2).partition_node(0, 0, 1_000_000);
        let mut inner = Scripted {
            events: (0..3).map(row_event).collect(),
            controls: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(&mut inner, plan, 1);
        let delivered = pump(&mut chaos);
        assert_eq!(sources(&delivered), vec![0, 1, 2]);
    }

    fn hub_control(source: u32) -> NodeControl {
        NodeControl::Hub(RowMessage::new(source, vec![source; 4]))
    }

    /// Sends `controls` to node `node` through `plan` and returns what
    /// reached the inner transport.
    fn relay(plan: &ChaosPlan, node: usize, controls: Vec<NodeControl>) -> Vec<NodeControl> {
        let mut inner = Scripted {
            events: VecDeque::new(),
            controls: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(&mut inner, plan.clone(), node + 1);
        for message in controls {
            chaos.control(node, message);
        }
        inner.controls
    }

    /// The sources of the `Hub` relays among `controls`.
    fn hub_sources(controls: &[NodeControl]) -> Vec<u32> {
        controls
            .iter()
            .filter_map(|c| match c {
                NodeControl::Hub(msg) => Some(msg.source),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn hub_drops_are_a_pure_function_of_peer_and_control_seq() {
        let plan = ChaosPlan::seeded(42).with_hub_drop_probability(0.5);
        let hubs = || (0..64).map(hub_control).collect::<Vec<_>>();
        let first = hub_sources(&relay(&plan, 1, hubs()));
        assert_eq!(first, hub_sources(&relay(&plan, 1, hubs())));
        assert!(!first.is_empty() && first.len() < 64, "p=0.5 drops some");
        assert_ne!(
            first,
            hub_sources(&relay(&plan, 2, hubs())),
            "the peer must enter the decision"
        );
        assert_ne!(
            first,
            hub_sources(&relay(
                &ChaosPlan::seeded(43).with_hub_drop_probability(0.5),
                1,
                hubs()
            )),
            "the seed must enter the decision"
        );
    }

    #[test]
    fn hub_drop_rate_tracks_probability() {
        let plan = ChaosPlan::seeded(7).with_hub_drop_probability(0.3);
        let kept = relay(&plan, 3, (0..2000).map(hub_control).collect()).len();
        let dropped = 2000 - kept;
        assert!(
            (450..750).contains(&dropped),
            "got {dropped} drops of 2000 at p=0.3"
        );
    }

    #[test]
    fn hub_drops_never_touch_assign_resend_or_shutdown() {
        let plan = ChaosPlan::seeded(5).with_hub_drop_probability(1.0);
        let mut controls = Vec::new();
        for s in 0..20 {
            controls.push(hub_control(s));
            controls.push(NodeControl::Assign(s));
            controls.push(NodeControl::Resend(s));
        }
        controls.push(NodeControl::Shutdown);
        let delivered = relay(&plan, 0, controls);
        assert!(hub_sources(&delivered).is_empty(), "p=1 drops every hub");
        assert_eq!(delivered.len(), 41, "every other control goes through");
        assert!(matches!(delivered.last(), Some(NodeControl::Shutdown)));
        // Events in the other direction are held, never dropped.
        let mut inner = Scripted {
            events: (0..10).map(row_event).collect(),
            controls: Vec::new(),
        };
        let mut chaos = ChaosTransport::new(&mut inner, plan, 1);
        assert_eq!(sources(&pump(&mut chaos)), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "hub drop probability")]
    fn out_of_range_hub_drop_probability_is_rejected() {
        let _ = ChaosPlan::seeded(0).with_hub_drop_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "corrupt probability")]
    fn certain_corruption_is_rejected() {
        let _ = ChaosPlan::seeded(0).with_corrupt_probability(1.0);
    }

    #[test]
    fn corruption_flips_exactly_one_bit_deterministically() {
        let plan = ChaosPlan::seeded(3).with_corrupt_probability(0.5);
        let run = || {
            let mut inner = Scripted {
                events: (0..40).map(row_event).collect(),
                controls: Vec::new(),
            };
            let mut chaos = ChaosTransport::new(&mut inner, plan.clone(), 1);
            pump(&mut chaos)
        };
        let delivered = run();
        let mut flipped_rows = 0;
        for (event, again) in delivered.iter().zip(run()) {
            let (NodeEvent::Row(msg), NodeEvent::Row(again)) = (event, again) else {
                panic!("only rows were sent");
            };
            assert_eq!(msg.row, again.row, "same coordinates flip the same bit");
            let flipped: u32 = msg
                .row
                .iter()
                .map(|&cell| (cell ^ msg.source).count_ones())
                .sum();
            assert!(flipped <= 1, "row {}: {flipped} bits flipped", msg.source);
            flipped_rows += flipped;
        }
        assert!(flipped_rows > 0, "p=0.5 over 40 rows flips some");
    }
}
