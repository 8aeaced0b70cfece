use core::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// Counts of every coherence-relevant event class in a run.
///
/// The classes are chosen so that each of the paper's protocols can derive
/// its transaction mix from them:
///
/// * the **snooping** ring cares about "local clean read miss" (no ring
///   traffic) versus everything else (one probe traversal + a block reply);
/// * the **full-map directory** ring cares about the geometry classes of
///   Figure 5 — 1-cycle clean, 1-cycle dirty and 2-cycle misses — and about
///   whether invalidations need a multicast round;
/// * the **bus** broadcasts every miss and upgrade.
///
/// `local` / `remote` refers to the position of the block's *home* node
/// relative to the requester. `_1` / `_2` on dirty-miss classes is the ring
/// traversal count: `_1` when the dirty node is *not* on the requester→home
/// path (the "fortunate" placement of paper Figure 2), `_2` otherwise.
///
/// # Examples
///
/// ```
/// use ringsim_types::CoherenceEvents;
///
/// let mut e = CoherenceEvents::default();
/// e.shared_reads = 80;
/// e.read_clean_remote = 8;
/// e.read_dirty_1 = 2;
/// assert_eq!(e.shared_misses(), 10);
/// assert_eq!(e.fig5_one_cycle_clean(), 8);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are the documentation; see type docs
pub struct CoherenceEvents {
    // Reference mix.
    pub private_reads: u64,
    pub private_writes: u64,
    pub shared_reads: u64,
    pub shared_writes: u64,

    // Private misses (homes are always local for private pages).
    pub private_misses: u64,

    // Shared read misses.
    pub read_clean_local: u64,
    pub read_clean_remote: u64,
    pub read_dirty_1: u64,
    pub read_dirty_2: u64,

    // Shared write misses.
    pub write_nosharers_local: u64,
    pub write_nosharers_remote: u64,
    pub write_sharers_local: u64,
    pub write_sharers_remote: u64,
    pub write_dirty_1: u64,
    pub write_dirty_2: u64,

    // Upgrades (write hits on read-shared lines; the paper's
    // "invalidations").
    pub upgrade_nosharers_local: u64,
    pub upgrade_nosharers_remote: u64,
    pub upgrade_sharers_local: u64,
    pub upgrade_sharers_remote: u64,

    // Write-backs of dirty victims, by home locality.
    pub writeback_local: u64,
    pub writeback_remote: u64,

    /// Total remote cache lines invalidated by writes/upgrades.
    pub invalidated_copies: u64,
}

impl CoherenceEvents {
    /// All data references.
    #[must_use]
    pub fn data_refs(&self) -> u64 {
        self.private_reads + self.private_writes + self.shared_reads + self.shared_writes
    }

    /// References to private data.
    #[must_use]
    pub fn private_refs(&self) -> u64 {
        self.private_reads + self.private_writes
    }

    /// References to shared data.
    #[must_use]
    pub fn shared_refs(&self) -> u64 {
        self.shared_reads + self.shared_writes
    }

    /// Shared read misses.
    #[must_use]
    pub fn shared_read_misses(&self) -> u64 {
        self.read_clean_local + self.read_clean_remote + self.read_dirty_1 + self.read_dirty_2
    }

    /// Shared write misses.
    #[must_use]
    pub fn shared_write_misses(&self) -> u64 {
        self.write_nosharers_local
            + self.write_nosharers_remote
            + self.write_sharers_local
            + self.write_sharers_remote
            + self.write_dirty_1
            + self.write_dirty_2
    }

    /// All shared misses.
    #[must_use]
    pub fn shared_misses(&self) -> u64 {
        self.shared_read_misses() + self.shared_write_misses()
    }

    /// All misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.private_misses + self.shared_misses()
    }

    /// All upgrades.
    #[must_use]
    pub fn upgrades(&self) -> u64 {
        self.upgrade_nosharers_local
            + self.upgrade_nosharers_remote
            + self.upgrade_sharers_local
            + self.upgrade_sharers_remote
    }

    /// Counts one shared write miss that no dirty copy supplied, in the
    /// bucket for whether other caches held the block (`sharers`) and
    /// whether its home is the requester's own node (`local`).
    pub fn record_write_miss(&mut self, sharers: bool, local: bool) {
        *match (sharers, local) {
            (false, true) => &mut self.write_nosharers_local,
            (false, false) => &mut self.write_nosharers_remote,
            (true, true) => &mut self.write_sharers_local,
            (true, false) => &mut self.write_sharers_remote,
        } += 1;
    }

    /// Counts one upgrade in the bucket for whether other caches held the
    /// block (`sharers`) and whether its home is the requester's own node
    /// (`local`).
    pub fn record_upgrade(&mut self, sharers: bool, local: bool) {
        *match (sharers, local) {
            (false, true) => &mut self.upgrade_nosharers_local,
            (false, false) => &mut self.upgrade_nosharers_remote,
            (true, true) => &mut self.upgrade_sharers_local,
            (true, false) => &mut self.upgrade_sharers_remote,
        } += 1;
    }

    /// All write-backs.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writeback_local + self.writeback_remote
    }

    /// Miss rate over all data references (upgrades are accesses, not
    /// misses — matches Table 2).
    #[must_use]
    pub fn total_miss_rate(&self) -> f64 {
        ratio(self.misses(), self.data_refs())
    }

    /// Miss rate over shared references.
    #[must_use]
    pub fn shared_miss_rate(&self) -> f64 {
        ratio(self.shared_misses(), self.shared_refs())
    }

    /// Miss rate over private references.
    #[must_use]
    pub fn private_miss_rate(&self) -> f64 {
        ratio(self.private_misses, self.private_refs())
    }

    /// Fraction of shared references that write.
    #[must_use]
    pub fn shared_write_frac(&self) -> f64 {
        ratio(self.shared_writes, self.shared_refs())
    }

    /// Fraction of private references that write.
    #[must_use]
    pub fn private_write_frac(&self) -> f64 {
        ratio(self.private_writes, self.private_refs())
    }

    /// Remote shared misses: every shared miss that must use the
    /// interconnect under the directory protocol (home remote, or dirty
    /// copy / sharers elsewhere).
    #[must_use]
    pub fn remote_misses(&self) -> u64 {
        self.fig5_one_cycle_clean() + self.fig5_one_cycle_dirty() + self.fig5_two_cycle()
    }

    /// Figure 5 class: misses satisfied by a remote home in one traversal
    /// with no third party (clean remote misses, plus local-home multicasts
    /// which also take one traversal).
    #[must_use]
    pub fn fig5_one_cycle_clean(&self) -> u64 {
        self.read_clean_remote + self.write_nosharers_remote + self.write_sharers_local
    }

    /// Figure 5 class: dirty misses resolved in one traversal thanks to the
    /// fortunate position of the dirty node.
    #[must_use]
    pub fn fig5_one_cycle_dirty(&self) -> u64 {
        self.read_dirty_1 + self.write_dirty_1
    }

    /// Figure 5 class: misses needing two ring traversals (unfortunate dirty
    /// node, or a multicast invalidation round before the reply).
    #[must_use]
    pub fn fig5_two_cycle(&self) -> u64 {
        self.read_dirty_2 + self.write_dirty_2 + self.write_sharers_remote
    }

    /// Fraction of shared misses that found the block dirty in a remote
    /// cache.
    #[must_use]
    pub fn dirty_miss_frac(&self) -> f64 {
        ratio(
            self.read_dirty_1 + self.read_dirty_2 + self.write_dirty_1 + self.write_dirty_2,
            self.shared_misses(),
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Add for CoherenceEvents {
    type Output = CoherenceEvents;
    fn add(mut self, rhs: CoherenceEvents) -> CoherenceEvents {
        self += rhs;
        self
    }
}

impl AddAssign for CoherenceEvents {
    fn add_assign(&mut self, rhs: CoherenceEvents) {
        self.private_reads += rhs.private_reads;
        self.private_writes += rhs.private_writes;
        self.shared_reads += rhs.shared_reads;
        self.shared_writes += rhs.shared_writes;
        self.private_misses += rhs.private_misses;
        self.read_clean_local += rhs.read_clean_local;
        self.read_clean_remote += rhs.read_clean_remote;
        self.read_dirty_1 += rhs.read_dirty_1;
        self.read_dirty_2 += rhs.read_dirty_2;
        self.write_nosharers_local += rhs.write_nosharers_local;
        self.write_nosharers_remote += rhs.write_nosharers_remote;
        self.write_sharers_local += rhs.write_sharers_local;
        self.write_sharers_remote += rhs.write_sharers_remote;
        self.write_dirty_1 += rhs.write_dirty_1;
        self.write_dirty_2 += rhs.write_dirty_2;
        self.upgrade_nosharers_local += rhs.upgrade_nosharers_local;
        self.upgrade_nosharers_remote += rhs.upgrade_nosharers_remote;
        self.upgrade_sharers_local += rhs.upgrade_sharers_local;
        self.upgrade_sharers_remote += rhs.upgrade_sharers_remote;
        self.writeback_local += rhs.writeback_local;
        self.writeback_remote += rhs.writeback_remote;
        self.invalidated_copies += rhs.invalidated_copies;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoherenceEvents {
        CoherenceEvents {
            private_reads: 700,
            private_writes: 300,
            shared_reads: 160,
            shared_writes: 40,
            private_misses: 5,
            read_clean_local: 2,
            read_clean_remote: 10,
            read_dirty_1: 3,
            read_dirty_2: 4,
            write_nosharers_local: 1,
            write_nosharers_remote: 2,
            write_sharers_local: 1,
            write_sharers_remote: 3,
            write_dirty_1: 1,
            write_dirty_2: 2,
            upgrade_nosharers_local: 1,
            upgrade_nosharers_remote: 2,
            upgrade_sharers_local: 3,
            upgrade_sharers_remote: 4,
            writeback_local: 6,
            writeback_remote: 7,
            invalidated_copies: 11,
        }
    }

    #[test]
    fn totals_add_up() {
        let e = sample();
        assert_eq!(e.data_refs(), 1200);
        assert_eq!(e.shared_read_misses(), 19);
        assert_eq!(e.shared_write_misses(), 10);
        assert_eq!(e.shared_misses(), 29);
        assert_eq!(e.misses(), 34);
        assert_eq!(e.upgrades(), 10);
        assert_eq!(e.writebacks(), 13);
    }

    #[test]
    fn rates() {
        let e = sample();
        assert!((e.total_miss_rate() - 34.0 / 1200.0).abs() < 1e-12);
        assert!((e.shared_miss_rate() - 29.0 / 200.0).abs() < 1e-12);
        assert!((e.shared_write_frac() - 0.2).abs() < 1e-12);
        assert!((e.private_write_frac() - 0.3).abs() < 1e-12);
        assert_eq!(CoherenceEvents::default().total_miss_rate(), 0.0);
    }

    #[test]
    fn fig5_partition_covers_remote_misses() {
        let e = sample();
        let remote = e.fig5_one_cycle_clean() + e.fig5_one_cycle_dirty() + e.fig5_two_cycle();
        assert_eq!(remote, e.remote_misses());
        // Every shared miss is either local-clean or in a Figure 5 class.
        assert_eq!(e.shared_misses(), remote + e.read_clean_local + e.write_nosharers_local);
    }

    #[test]
    fn addition_is_fieldwise() {
        let e = sample();
        let sum = e + e;
        assert_eq!(sum.data_refs(), 2 * e.data_refs());
        assert_eq!(sum.misses(), 2 * e.misses());
        assert_eq!(sum.invalidated_copies, 22);
    }

    #[test]
    fn write_miss_and_upgrade_buckets() {
        let mut e = CoherenceEvents::default();
        for (n, (sharers, local)) in
            [(false, true), (false, false), (true, true), (true, false)].into_iter().enumerate()
        {
            for _ in 0..=n {
                e.record_write_miss(sharers, local);
                e.record_upgrade(sharers, local);
            }
        }
        assert_eq!(
            (
                e.write_nosharers_local,
                e.write_nosharers_remote,
                e.write_sharers_local,
                e.write_sharers_remote
            ),
            (1, 2, 3, 4)
        );
        assert_eq!(
            (
                e.upgrade_nosharers_local,
                e.upgrade_nosharers_remote,
                e.upgrade_sharers_local,
                e.upgrade_sharers_remote
            ),
            (1, 2, 3, 4)
        );
        assert_eq!((e.shared_write_misses(), e.upgrades(), e.invalidated_copies), (10, 10, 0));
    }

    #[test]
    fn dirty_fraction() {
        let e = sample();
        assert!((e.dirty_miss_frac() - 10.0 / 29.0).abs() < 1e-12);
    }
}
