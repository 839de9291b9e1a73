//! Deterministic node faults for the simulated cluster.
//!
//! A [`FaultPlan`] says what a node does wrong: it crashes (stops dead
//! after emitting its k-th row) or stalls (goes silent for a while, then
//! resumes). What the wire does wrong — dropped hub relays, bit flips,
//! delay, duplication, partitions — is a [`ChaosPlan`]'s business. Every
//! decision is a pure function of the plan's seed and the node's
//! coordinates, never of wall-clock time or thread interleaving, so a
//! given plan injects exactly the same faults on every run. That is what
//! makes the recovery invariant testable: the driver must produce a
//! bit-identical [`DistanceMatrix`] under any plan that leaves at least
//! one node alive.
//!
//! [`ChaosPlan`]: crate::ChaosPlan
//! [`DistanceMatrix`]: parapsp_core::DistanceMatrix

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible schedule of faults for one [`DistEngine`] run.
///
/// The default plan injects nothing, so `FaultPlan::default()` preserves
/// the fault-free behaviour exactly.
///
/// ```
/// use parapsp_dist::FaultPlan;
///
/// let plan = FaultPlan::seeded(7)
///     .crash_node_after(1, 3)         // node 1 dies after its 3rd source
///     .stall_node_after(2, 5, 100);   // node 2 goes quiet for 100 ms
/// assert!(!plan.is_inert());
/// assert_eq!(FaultPlan::default(), FaultPlan::seeded(0));
/// ```
///
/// [`DistEngine`]: crate::DistEngine
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<(usize, u64)>,
    stalls: Vec<(usize, u64, u64)>,
}

impl FaultPlan {
    /// A plan with no faults; the seed only keys the retry backoff jitter.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Crashes `node` immediately after it has completed `k` sources
    /// (`k = 0` crashes it before it computes anything). The crash is
    /// simulated by the node thread returning: its channels disconnect and
    /// it never speaks again.
    pub fn crash_node_after(mut self, node: usize, k: u64) -> Self {
        self.crashes.push((node, k));
        self
    }

    /// Stalls `node` for `millis` milliseconds once it has completed `k`
    /// sources: the node goes silent (no rows, no heartbeats) but does not
    /// die — the scenario a watchdog must distinguish from a crash. The
    /// node resumes normally after the stall.
    pub fn stall_node_after(mut self, node: usize, k: u64, millis: u64) -> Self {
        self.stalls.push((node, k, millis));
        self
    }

    /// Whether this plan injects no faults at all.
    pub fn is_inert(&self) -> bool {
        self.crashes.is_empty() && self.stalls.is_empty()
    }

    /// The source count after which `node` crashes, if it is scheduled to.
    /// Multiple entries for one node collapse to the earliest crash.
    pub(crate) fn crash_after(&self, node: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|&&(who, _)| who == node)
            .map(|&(_, k)| k)
            .min()
    }

    /// The `(after_k_sources, millis)` stall scheduled for `node`, if any.
    /// Multiple entries for one node collapse to the earliest stall.
    pub(crate) fn stall_after(&self, node: usize) -> Option<(u64, u64)> {
        self.stalls
            .iter()
            .filter(|&&(who, _, _)| who == node)
            .map(|&(_, k, ms)| (k, ms))
            .min()
    }

    /// Deterministic jitter in `[0, span]` milliseconds for retry backoff,
    /// keyed like every other decision so re-runs sleep identically.
    pub(crate) fn backoff_jitter_ms(&self, node: u64, source: u32, attempt: u64, span: u64) -> u64 {
        if span == 0 {
            return 0;
        }
        self.decision_rng(0x4241434B, node, u64::from(source), attempt)
            .random_range(0..=span)
    }

    /// Serializes the plan for the socket transport's `SETUP` frame, so a
    /// worker process crashes, stalls and backs off exactly where an
    /// in-process node would.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.crashes.len() as u32).to_le_bytes());
        for &(node, k) in &self.crashes {
            out.extend_from_slice(&(node as u64).to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
        }
        out.extend_from_slice(&(self.stalls.len() as u32).to_le_bytes());
        for &(node, k, ms) in &self.stalls {
            out.extend_from_slice(&(node as u64).to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&ms.to_le_bytes());
        }
    }

    /// Inverse of [`encode`](Self::encode); `None` on a malformed buffer.
    pub(crate) fn decode(buf: &mut &[u8]) -> Option<FaultPlan> {
        let seed = crate::wire::take_u64(buf)?;
        let crashes = (0..crate::wire::take_u32(buf)?)
            .map(|_| {
                Some((
                    usize::try_from(crate::wire::take_u64(buf)?).ok()?,
                    crate::wire::take_u64(buf)?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        let stalls = (0..crate::wire::take_u32(buf)?)
            .map(|_| {
                Some((
                    usize::try_from(crate::wire::take_u64(buf)?).ok()?,
                    crate::wire::take_u64(buf)?,
                    crate::wire::take_u64(buf)?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(FaultPlan {
            seed,
            crashes,
            stalls,
        })
    }

    /// A fresh generator keyed on the plan seed plus the decision
    /// coordinates, mixed so that nearby coordinates do not correlate.
    fn decision_rng(&self, salt: u64, a: u64, b: u64, c: u64) -> StdRng {
        let mut key = self.seed ^ salt.rotate_left(32);
        for word in [a, b, c] {
            key ^= word.wrapping_add(0x9E37_79B9_7F4A_7C15);
            key = (key ^ (key >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            key = (key ^ (key >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            key ^= key >> 31;
        }
        StdRng::seed_from_u64(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_inert());
        assert_eq!(plan.crash_after(0), None);
        assert_eq!(plan.stall_after(0), None);
    }

    #[test]
    fn stalls_and_backoff_jitter_are_deterministic() {
        let plan = FaultPlan::seeded(9)
            .stall_node_after(1, 5, 200)
            .stall_node_after(1, 2, 100);
        assert!(!plan.is_inert());
        assert_eq!(plan.stall_after(1), Some((2, 100)), "earliest stall wins");
        assert_eq!(plan.stall_after(0), None);
        let again = FaultPlan::seeded(9);
        for attempt in 0..8u64 {
            let j = plan.backoff_jitter_ms(3, 17, attempt, 6);
            assert!(j <= 6);
            assert_eq!(j, again.backoff_jitter_ms(3, 17, attempt, 6));
        }
        assert_eq!(plan.backoff_jitter_ms(3, 17, 0, 0), 0);
    }

    #[test]
    fn earliest_crash_wins() {
        let plan = FaultPlan::seeded(1)
            .crash_node_after(2, 9)
            .crash_node_after(2, 4);
        assert_eq!(plan.crash_after(2), Some(4));
        assert_eq!(plan.crash_after(0), None);
    }
}
