//! Performance counters collected by the NoC (paper §III-D: hops, traffic
//! and contention at every hierarchy level, recorded in the counters file
//! for energy post-processing).

use muchisim_config::LinkClass;
use serde::{Deserialize, Serialize};

/// Index of a [`LinkClass`] in per-class counter arrays.
pub(crate) fn class_index(class: LinkClass) -> usize {
    match class {
        LinkClass::OnChip => 0,
        LinkClass::DieToDie => 1,
        LinkClass::OffPackage => 2,
        LinkClass::InterNode => 3,
    }
}

/// Aggregated NoC counters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NocCounters {
    /// Packets injected by PUs.
    pub injected: u64,
    /// Packets delivered to destination tiles.
    pub ejected: u64,
    /// Router-to-router packet moves.
    pub msg_hops: u64,
    /// Flit hops per link class `[on-chip, die-to-die, off-package,
    /// inter-node]`.
    pub flit_hops_by_class: [u64; 4],
    /// Flit × millimeter product for on-chip wire energy.
    pub onchip_flit_mm: f64,
    /// Destination-port collisions: extra candidates that lost round-robin
    /// arbitration in some cycle.
    pub collisions: u64,
    /// Moves blocked by a full downstream buffer.
    pub backpressure: u64,
    /// Ejections refused because the tile's input queue was full.
    pub eject_stalls: u64,
    /// Messages eliminated by in-network reduction combining.
    pub reduce_combines: u64,
}

/// `*sum += part`; `None` when the sum does not fit.
pub(crate) fn checked_acc(sum: &mut u64, part: u64) -> Option<()> {
    *sum = sum.checked_add(part)?;
    Some(())
}

impl NocCounters {
    /// Accumulates `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics when a count overflows; counts that come from a file go
    /// through [`NocCounters::checked_merge`] instead.
    pub fn merge(&mut self, other: &NocCounters) {
        self.checked_merge(other).expect("NoC counters overflow");
    }

    /// Accumulates `other` into `self`; `None` (with `self` partly
    /// merged) when a count overflows.
    pub fn checked_merge(&mut self, other: &NocCounters) -> Option<()> {
        checked_acc(&mut self.injected, other.injected)?;
        checked_acc(&mut self.ejected, other.ejected)?;
        checked_acc(&mut self.msg_hops, other.msg_hops)?;
        for (sum, &part) in self
            .flit_hops_by_class
            .iter_mut()
            .zip(&other.flit_hops_by_class)
        {
            checked_acc(sum, part)?;
        }
        self.onchip_flit_mm += other.onchip_flit_mm;
        checked_acc(&mut self.collisions, other.collisions)?;
        checked_acc(&mut self.backpressure, other.backpressure)?;
        checked_acc(&mut self.eject_stalls, other.eject_stalls)?;
        checked_acc(&mut self.reduce_combines, other.reduce_combines)
    }

    /// Packets in flight by the counters' balance: injected − ejected −
    /// combined. A shard's share may be negative (its tiles can receive
    /// more than they send); a plane's shards sum to the packets the plane
    /// holds. Wrapping, so counts read from a damaged file cannot panic
    /// here — they fail the restore's comparison with the packets instead.
    pub fn in_flight(&self) -> i64 {
        self.injected
            .wrapping_sub(self.ejected)
            .wrapping_sub(self.reduce_combines) as i64
    }

    /// Total flit hops across all link classes.
    pub fn total_flit_hops(&self) -> u64 {
        self.flit_hops_by_class.iter().sum()
    }

    /// Flit hops over `class` links.
    pub fn flit_hops(&self, class: LinkClass) -> u64 {
        self.flit_hops_by_class[class_index(class)]
    }
}

/// Host-side ledger of what [`crate::Shard::step`] did with each
/// router-cycle of a router holding traffic.
///
/// Not simulated state: the four counts describe how the host got to
/// the result, so they stay out of [`NocCounters`], checksums and
/// snapshots (a resumed run starts them from zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RouterVisits {
    /// Full evaluations that moved or ejected at least one packet.
    pub evaluated_moved: u64,
    /// Full evaluations that moved nothing (back-pressure, busy links,
    /// refused ejections, immature heads).
    pub evaluated_stalled: u64,
    /// Router-cycles a back-pressured router slept through on its stall
    /// memo: no visit, the refusal's effects settled from the memo. (The
    /// field keeps the name stored records carry; until the event-driven
    /// wake these were visits that replayed the memo.)
    pub replayed: u64,
    /// Router-cycles skipped by the wake check because no head could
    /// move yet (immature heads, busy links).
    pub asleep: u64,
}

impl RouterVisits {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RouterVisits) {
        self.evaluated_moved += other.evaluated_moved;
        self.evaluated_stalled += other.evaluated_stalled;
        self.replayed += other.replayed;
        self.asleep += other.asleep;
    }

    /// Visits that got past the wake check: the full evaluations.
    pub fn awake(&self) -> u64 {
        self.evaluated_moved + self.evaluated_stalled
    }

    /// Share of awake visits that ran the full evaluation for nothing
    /// (0 when no router was ever awake).
    pub fn stalled_share(&self) -> f64 {
        match self.awake() {
            0 => 0.0,
            awake => self.evaluated_stalled as f64 / awake as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_visits_merge_and_share() {
        let mut a = RouterVisits {
            evaluated_moved: 9,
            evaluated_stalled: 1,
            replayed: 3,
            asleep: 40,
        };
        assert_eq!(a.awake(), 10, "slept-through router-cycles are not visits");
        assert_eq!(a.stalled_share(), 0.1);
        a.merge(&a.clone());
        assert_eq!((a.awake(), a.replayed, a.asleep), (20, 6, 80));
        assert_eq!(RouterVisits::default().stalled_share(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = NocCounters {
            injected: 1,
            ejected: 2,
            msg_hops: 3,
            flit_hops_by_class: [1, 2, 3, 4],
            onchip_flit_mm: 1.5,
            collisions: 1,
            backpressure: 2,
            eject_stalls: 3,
            reduce_combines: 4,
        };
        assert_eq!(a.in_flight(), -5, "a shard may eject more than it injects");
        a.merge(&a.clone());
        assert_eq!(a.injected, 2);
        assert_eq!(a.flit_hops_by_class, [2, 4, 6, 8]);
        assert_eq!(a.onchip_flit_mm, 3.0);
        assert_eq!(a.total_flit_hops(), 20);
        assert_eq!(a.flit_hops(LinkClass::DieToDie), 4);
    }

    #[test]
    fn class_indices_distinct() {
        let idxs = [
            class_index(LinkClass::OnChip),
            class_index(LinkClass::DieToDie),
            class_index(LinkClass::OffPackage),
            class_index(LinkClass::InterNode),
        ];
        for (i, a) in idxs.iter().enumerate() {
            for b in &idxs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
