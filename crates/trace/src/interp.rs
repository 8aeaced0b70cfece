use ringsim_cache::{AccessClass, Cache, CacheConfig, LineState};
use ringsim_types::{
    AccessKind, BlockAddr, CoherenceEvents, ConfigError, FnvMap, MemRef, NodeId, Region,
};

use crate::space::{AddressSpace, BLOCK_BYTES};
use crate::{Workload, WorkloadSpec};

/// Global sharing state of one block, as seen by an idealised (zero-latency)
/// coherent memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BlockInfo {
    /// Bitmask of nodes holding a valid copy (≤ 64 nodes).
    sharers: u64,
    /// The write-exclusive holder, if the block is dirty.
    owner: Option<NodeId>,
}

/// An untimed, sequentially interleaved coherent-memory interpreter.
///
/// This is the reference semantics for every protocol in the workspace: it
/// executes references instantly under write-invalidate coherence and
/// classifies each coherence event into [`CoherenceEvents`] buckets. It is
/// used for
///
/// * **trace characterisation** (Table 2) — see [`characterize`],
/// * deriving **analytic model parameters** without a timed simulation,
/// * **protocol equivalence tests**: the timed snooping and directory
///   simulators must agree with it on final sharing state for identical
///   interleavings.
///
/// # Examples
///
/// ```
/// use ringsim_trace::{RefInterpreter, Workload, WorkloadSpec};
///
/// let mut workload = Workload::new(WorkloadSpec::demo(4)).unwrap();
/// let mut interp = RefInterpreter::new(4, workload.space()).unwrap();
/// for r in workload.round_robin(1_000) {
///     interp.process(r);
/// }
/// assert!(interp.events().data_refs() > 0);
/// interp.check_invariants().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct RefInterpreter {
    caches: Vec<Cache>,
    space: AddressSpace,
    blocks: FnvMap<u64, BlockInfo>,
    events: CoherenceEvents,
    counting: bool,
}

impl RefInterpreter {
    /// Creates the interpreter with the paper's default cache geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for more than 64 nodes (the sharer bitmask
    /// limit) or an invalid cache configuration.
    pub fn new(nodes: usize, space: AddressSpace) -> Result<Self, ConfigError> {
        Self::with_cache(nodes, space, CacheConfig::paper_default())
    }

    /// Creates the interpreter with a custom cache geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for more than 64 nodes or an invalid cache
    /// configuration.
    pub fn with_cache(
        nodes: usize,
        space: AddressSpace,
        cache: CacheConfig,
    ) -> Result<Self, ConfigError> {
        if nodes == 0 || nodes > 64 {
            return Err(ConfigError::new("nodes", "must be between 1 and 64"));
        }
        let caches = (0..nodes).map(|_| Cache::new(cache)).collect::<Result<_, _>>()?;
        Ok(Self {
            caches,
            space,
            blocks: FnvMap::default(),
            events: CoherenceEvents::default(),
            counting: true,
        })
    }

    /// Enables or disables event counting (used to exclude warmup).
    pub fn set_counting(&mut self, on: bool) {
        self.counting = on;
    }

    /// Accumulated event counts.
    #[must_use]
    pub fn events(&self) -> CoherenceEvents {
        self.events
    }

    /// The per-node cache array (read-only view).
    #[must_use]
    pub fn caches(&self) -> &[Cache] {
        &self.caches
    }

    /// Executes one reference to completion.
    ///
    /// # Panics
    ///
    /// Panics if `r.node` is out of range for this interpreter.
    pub fn process(&mut self, r: MemRef) {
        let node = r.node;
        let block = r.addr.block(BLOCK_BYTES);
        let class = self.caches[node.index()].classify(block, r.kind);

        if self.counting {
            match (r.region, r.kind) {
                (Region::Private, AccessKind::Read) => self.events.private_reads += 1,
                (Region::Private, AccessKind::Write) => self.events.private_writes += 1,
                (Region::Shared, AccessKind::Read) => self.events.shared_reads += 1,
                (Region::Shared, AccessKind::Write) => self.events.shared_writes += 1,
            }
        }

        match class {
            AccessClass::Hit => {}
            AccessClass::Upgrade => self.do_upgrade(node, block),
            AccessClass::Miss => self.do_miss(node, block, r.kind, r.region),
        }
    }

    fn bit(node: NodeId) -> u64 {
        1 << node.index()
    }

    /// `true` when the dirty node `d` lies on the requester→home ring path
    /// (the "unfortunate" 2-traversal placement of Figure 2b).
    fn dirty_on_path(&self, requester: NodeId, home: NodeId, dirty: NodeId) -> bool {
        let n = self.space.nodes();
        if home == requester || dirty == home {
            return false;
        }
        requester.hops_to(dirty, n) < requester.hops_to(home, n)
    }

    fn do_upgrade(&mut self, node: NodeId, block: BlockAddr) {
        let home = self.space.home_of_block(block);
        let info = self.blocks.entry(block.raw()).or_default();
        debug_assert!(info.owner.is_none(), "upgrade on a dirty block");
        let others = info.sharers & !Self::bit(node);
        let local = home == node;
        if self.counting {
            self.events.record_upgrade(others != 0, local);
            self.events.invalidated_copies += others.count_ones() as u64;
        }
        info.sharers = Self::bit(node);
        info.owner = Some(node);
        for peer in NodeId::all(self.caches.len()) {
            if others & Self::bit(peer) != 0 {
                self.caches[peer.index()].snoop_invalidate(block);
            }
        }
        let promoted = self.caches[node.index()].promote(block);
        debug_assert!(promoted, "upgrade on absent line");
    }

    fn do_miss(&mut self, node: NodeId, block: BlockAddr, kind: AccessKind, region: Region) {
        let home = self.space.home_of_block(block);
        let local = home == node;
        let info = *self.blocks.get(&block.raw()).unwrap_or(&BlockInfo::default());
        debug_assert!(info.owner != Some(node), "miss on a block this cache owns");

        if self.counting {
            match region {
                Region::Private => self.events.private_misses += 1,
                Region::Shared => match (kind, info.owner) {
                    (AccessKind::Read, Some(d)) => {
                        if self.dirty_on_path(node, home, d) {
                            self.events.read_dirty_2 += 1;
                        } else {
                            self.events.read_dirty_1 += 1;
                        }
                    }
                    (AccessKind::Read, None) => {
                        if local {
                            self.events.read_clean_local += 1;
                        } else {
                            self.events.read_clean_remote += 1;
                        }
                    }
                    (AccessKind::Write, Some(d)) => {
                        if self.dirty_on_path(node, home, d) {
                            self.events.write_dirty_2 += 1;
                        } else {
                            self.events.write_dirty_1 += 1;
                        }
                    }
                    (AccessKind::Write, None) => {
                        let others = info.sharers & !Self::bit(node);
                        self.events.record_write_miss(others != 0, local);
                    }
                },
            }
        }

        // Coherence actions.
        let entry = self.blocks.entry(block.raw()).or_default();
        match kind {
            AccessKind::Read => {
                if let Some(d) = entry.owner.take() {
                    // Dirty node supplies and downgrades; memory is updated.
                    self.caches[d.index()].snoop_downgrade(block);
                }
                entry.sharers |= Self::bit(node);
            }
            AccessKind::Write => {
                let victims = entry.sharers & !Self::bit(node);
                if self.counting {
                    self.events.invalidated_copies += victims.count_ones() as u64;
                }
                entry.owner = Some(node);
                entry.sharers = Self::bit(node);
                for peer in NodeId::all(self.caches.len()) {
                    if victims & Self::bit(peer) != 0 {
                        self.caches[peer.index()].snoop_invalidate(block);
                    }
                }
            }
        }

        let fill_state = if kind.is_write() { LineState::We } else { LineState::Rs };
        if let Some((victim, vstate)) = self.caches[node.index()].fill(block, fill_state) {
            self.drop_copy(node, victim, vstate);
        }
    }

    /// Removes `node`'s copy of `victim` from the global map, accounting a
    /// write-back when the victim was dirty.
    fn drop_copy(&mut self, node: NodeId, victim: BlockAddr, vstate: LineState) {
        let vhome = self.space.home_of_block(victim);
        if let Some(info) = self.blocks.get_mut(&victim.raw()) {
            info.sharers &= !Self::bit(node);
            if info.owner == Some(node) {
                info.owner = None;
            }
        }
        if vstate.is_dirty() && self.counting {
            if vhome == node {
                self.events.writeback_local += 1;
            } else {
                self.events.writeback_remote += 1;
            }
        }
    }

    /// Verifies global/per-cache consistency: the owner (if any) holds the
    /// line in `We` and is the only sharer; every sharer holds a valid line;
    /// no cache holds a line the map does not know about.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (&raw, info) in &self.blocks {
            let block = BlockAddr::new(raw);
            if let Some(owner) = info.owner {
                if info.sharers != Self::bit(owner) {
                    return Err(format!("{block}: owner {owner} but sharers {:b}", info.sharers));
                }
                let st = self.caches[owner.index()].state_of(block);
                if st != LineState::We {
                    return Err(format!("{block}: owner {owner} cache state {st:?}"));
                }
            }
            for peer in NodeId::all(self.caches.len()) {
                let st = self.caches[peer.index()].state_of(block);
                let listed = info.sharers & Self::bit(peer) != 0;
                if listed && !st.is_valid() {
                    return Err(format!("{block}: {peer} listed as sharer but line is Inv"));
                }
                if !listed && st.is_valid() {
                    return Err(format!("{block}: {peer} holds {st:?} but is not listed"));
                }
                if st == LineState::We && info.owner != Some(peer) {
                    return Err(format!("{block}: {peer} is We but owner is {:?}", info.owner));
                }
            }
        }
        Ok(())
    }
}

/// Table 2-style characteristics of a workload, measured by running it
/// through the [`RefInterpreter`].
#[derive(Debug, Clone, PartialEq)]
pub struct Characteristics {
    /// Workload name.
    pub name: String,
    /// Processor count.
    pub procs: usize,
    /// Measured (post-warmup) event counts, aggregated over all nodes.
    pub events: CoherenceEvents,
    /// Instruction references per data reference (from the spec; instruction
    /// fetches never miss).
    pub instr_per_data: f64,
}

impl Characteristics {
    /// Total data references measured.
    #[must_use]
    pub fn data_refs(&self) -> u64 {
        self.events.data_refs()
    }

    /// Implied instruction reference count.
    #[must_use]
    pub fn instr_refs(&self) -> u64 {
        (self.events.data_refs() as f64 * self.instr_per_data) as u64
    }
}

/// Runs `spec` through the reference interpreter (warmup excluded from the
/// counts) and reports its characteristics.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the spec is invalid.
///
/// # Examples
///
/// ```
/// use ringsim_trace::{characterize, WorkloadSpec};
///
/// let ch = characterize(&WorkloadSpec::demo(4)).unwrap();
/// assert!(ch.events.total_miss_rate() > 0.0);
/// ```
pub fn characterize(spec: &WorkloadSpec) -> Result<Characteristics, ConfigError> {
    let mut workload = Workload::new(spec.clone())?;
    let space = workload.space();
    let mut interp = RefInterpreter::new(spec.procs, space)?;
    interp.set_counting(false);
    let warm = spec.warmup_refs_per_proc;
    for r in workload.round_robin(warm) {
        interp.process(r);
    }
    interp.set_counting(true);
    for r in workload.round_robin(spec.data_refs_per_proc) {
        interp.process(r);
    }
    Ok(Characteristics {
        name: spec.name.clone(),
        procs: spec.procs,
        events: interp.events(),
        instr_per_data: spec.instr_per_data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_demo(procs: usize, per_node: u64) -> RefInterpreter {
        let mut w = Workload::new(WorkloadSpec::demo(procs)).unwrap();
        let mut interp = RefInterpreter::new(procs, w.space()).unwrap();
        for r in w.round_robin(per_node) {
            interp.process(r);
        }
        interp
    }

    #[test]
    fn invariants_hold_throughout() {
        let mut w = Workload::new(WorkloadSpec::demo(4)).unwrap();
        let mut interp = RefInterpreter::new(4, w.space()).unwrap();
        for (i, r) in w.round_robin(2_000).enumerate() {
            interp.process(r);
            if i % 500 == 0 {
                interp.check_invariants().unwrap();
            }
        }
        interp.check_invariants().unwrap();
    }

    #[test]
    fn reference_mix_is_counted() {
        let interp = run_demo(4, 5_000);
        let e = interp.events();
        assert_eq!(e.data_refs(), 20_000);
        assert!(e.shared_refs() > 0 && e.private_refs() > 0);
    }

    #[test]
    fn migratory_sharing_produces_dirty_misses() {
        let spec = WorkloadSpec {
            shared_frac: 1.0,
            shared_read_only_frac: 0.0,
            shared_stream_frac: 0.0,
            shared_migratory_frac: 1.0,
            shared_prodcons_frac: 0.0,
            migratory_blocks: 64,
            migratory_run_len: 6,
            migratory_write_frac: 0.8,
            ..WorkloadSpec::demo(4)
        };
        let mut w = Workload::new(spec).unwrap();
        let mut interp = RefInterpreter::new(4, w.space()).unwrap();
        for r in w.round_robin(5_000) {
            interp.process(r);
        }
        let e = interp.events();
        assert!(e.dirty_miss_frac() > 0.3, "dirty frac = {}", e.dirty_miss_frac());
        assert!(e.upgrades() > 0);
    }

    #[test]
    fn read_only_sharing_produces_only_clean_misses() {
        let spec = WorkloadSpec {
            shared_frac: 1.0,
            shared_read_only_frac: 1.0,
            shared_stream_frac: 0.0,
            shared_migratory_frac: 0.0,
            shared_prodcons_frac: 0.0,
            read_only_blocks: 4096,
            private_cold_frac: 0.0,
            ..WorkloadSpec::demo(4)
        };
        let mut w = Workload::new(spec).unwrap();
        let mut interp = RefInterpreter::new(4, w.space()).unwrap();
        for r in w.round_robin(5_000) {
            interp.process(r);
        }
        let e = interp.events();
        assert_eq!(e.dirty_miss_frac(), 0.0);
        assert_eq!(e.upgrades(), 0);
        assert!(e.shared_misses() > 0);
        assert_eq!(e.shared_write_misses(), 0);
    }

    #[test]
    fn prodcons_invalidates_multiple_sharers() {
        let spec = WorkloadSpec {
            procs: 8,
            shared_frac: 1.0,
            shared_read_only_frac: 0.0,
            shared_stream_frac: 0.0,
            shared_migratory_frac: 0.0,
            shared_prodcons_frac: 1.0,
            prodcons_blocks: 32,
            prodcons_producer_frac: 0.2,
            ..WorkloadSpec::demo(8)
        };
        let mut w = Workload::new(spec).unwrap();
        let mut interp = RefInterpreter::new(8, w.space()).unwrap();
        for r in w.round_robin(5_000) {
            interp.process(r);
        }
        let e = interp.events();
        // Writers find reader copies: multi-sharer invalidations dominate.
        assert!(
            e.upgrade_sharers_local
                + e.upgrade_sharers_remote
                + e.write_sharers_local
                + e.write_sharers_remote
                > 0
        );
        assert!(e.invalidated_copies > e.upgrades(), "multiple copies per invalidation");
    }

    #[test]
    fn characterize_reports_spec_shape() {
        let spec = WorkloadSpec::demo(4);
        let ch = characterize(&spec).unwrap();
        assert_eq!(ch.procs, 4);
        assert_eq!(ch.data_refs(), 4 * spec.data_refs_per_proc);
        let shared_frac = ch.events.shared_refs() as f64 / ch.data_refs() as f64;
        assert!((shared_frac - spec.shared_frac).abs() < 0.03);
        assert_eq!(ch.instr_refs(), (ch.data_refs() as f64 * 2.0) as u64);
    }

    #[test]
    fn warmup_is_excluded_from_counts() {
        let spec = WorkloadSpec::demo(4);
        let ch = characterize(&spec).unwrap();
        // Only the measured refs appear.
        assert_eq!(ch.data_refs(), 4 * spec.data_refs_per_proc);
    }

    #[test]
    fn rejects_too_many_nodes() {
        let space = AddressSpace::new(65, 1);
        assert!(RefInterpreter::new(65, space).is_err());
    }
}
