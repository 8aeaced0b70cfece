//! SCI linked-list directory protocol: request/action vocabulary, the
//! sharing-list state, and the [`SciEngine`] that serves references.
//!
//! The paper only *accounts* for the linked-list directory (Table 1,
//! [`crate::table1::LinkedListAccountant`]); this module makes it a
//! first-class protocol. Every decision the home makes — head insertion on
//! a miss, list-order invalidation walk on a write, rollout splice on an
//! eviction — is declared in the guarded rule set
//! [`crate::guarded::SCI_RULES`], so the protocol inherits the
//! totality/determinism lint and the dead-rule gate, and the
//! `ringsim-check` model checker drives the same rules.
//!
//! [`SciEngine`] is the untimed core shared by the timed
//! `ringsim-core::SciRingSystem` backend: it owns the caches and sharing
//! lists, serves one [`MemRef`] at a time, and reports how many ring
//! traversals the transaction's message path needs. Replaying a reference
//! stream through the engine in stream order reproduces the
//! [`LinkedListAccountant`]'s [`TraversalReport`] exactly — a test pins
//! that equivalence.
//!
//! [`LinkedListAccountant`]: crate::table1::LinkedListAccountant

use ringsim_cache::{AccessClass, Cache, CacheConfig, LineState};
use ringsim_ring::RingLayout;
use ringsim_types::{AccessKind, BlockAddr, ConfigError, FnvMap, MemRef, NodeId, Region};

use crate::guarded::{sci_action, FireCounts};
use crate::table1::TraversalReport;

/// A request at the SCI home's per-block serialisation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SciRequest {
    /// Read miss: the requester wants to join the sharing list.
    Read,
    /// Write miss: the requester wants the block exclusively.
    Write,
    /// Upgrade of a still-listed read-shared copy (converted to
    /// [`SciRequest::Write`] if the copy was purged while queued).
    Upgrade,
    /// Rollout: an evicted copy splices itself out of the list.
    Rollout,
}

/// How the SCI home serves an admitted request (see
/// [`crate::guarded::SCI_RULES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SciAction {
    /// Read miss on an empty list: memory supplies; the requester becomes
    /// the list head.
    GrantFromMemory,
    /// Read miss on a non-empty list: forward to the head, which supplies
    /// (and downgrades if dirty); the requester prepends itself.
    ForwardToHead,
    /// Write miss on an empty list: memory supplies; the requester becomes
    /// the sole, dirty head.
    GrantClaim,
    /// Write miss on a non-empty list: the head supplies, then the whole
    /// list is purged by walking it in list order; the requester becomes
    /// the sole, dirty head.
    PurgeAndClaim,
    /// Upgrade with other list members: purge them in list order; the
    /// requester re-attaches as the sole, dirty head.
    PurgeOthersAndClaim,
    /// Upgrade by the sole list member: claim dirty, nothing moves.
    Claim,
    /// Rollout: splice the evicted node out of the sharing list.
    Splice,
}

/// Per-block sharing-list state: the distributed SCI list, head first,
/// plus the head-holds-dirty-data bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SciList {
    /// Sharing list, head first (new sharers prepend, as in SCI).
    pub list: Vec<NodeId>,
    /// The head's copy is modified; memory is stale.
    pub dirty: bool,
}

impl SciList {
    /// Whether `node` is on the list.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.list.contains(&node)
    }

    /// List members other than `node`, in list order.
    #[must_use]
    pub fn others(&self, node: NodeId) -> Vec<NodeId> {
        self.list.iter().copied().filter(|&p| p != node).collect()
    }

    /// Splices `node` out (rollout); clears the dirty bit when the list
    /// empties (the rolled-out head wrote the data back).
    pub fn splice(&mut self, node: NodeId) {
        self.list.retain(|&p| p != node);
        if self.list.is_empty() {
            self.dirty = false;
        }
    }
}

/// What serving one reference did, as the timed backend needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SciStep {
    /// Cache-side classification of the reference.
    pub class: AccessClass,
    /// Complete ring traversals the transaction's message path needs
    /// (0 for hits and fully home-local transactions).
    pub traversals: usize,
    /// Data was supplied by a dirty head cache rather than home memory.
    pub dirty_supply: bool,
    /// Copies purged from other caches.
    pub invalidated: usize,
}

impl SciStep {
    const HIT: SciStep =
        SciStep { class: AccessClass::Hit, traversals: 0, dirty_supply: false, invalidated: 0 };
}

/// The SCI linked-list directory engine: caches + sharing lists + the
/// traversal accounting of [`crate::table1::LinkedListAccountant`], with
/// every home decision dispatched through [`crate::guarded::SCI_RULES`].
#[derive(Debug)]
pub struct SciEngine<H> {
    layout: RingLayout,
    home_of: H,
    caches: Vec<Cache>,
    entries: FnvMap<u64, SciList>,
    report: TraversalReport,
}

impl<H: Fn(BlockAddr) -> NodeId> SciEngine<H> {
    /// Creates the engine for the ring described by `layout`; `home_of`
    /// maps blocks to home nodes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the layout has more than 64 nodes.
    pub fn new(layout: RingLayout, home_of: H) -> Result<Self, ConfigError> {
        if layout.nodes() > 64 {
            return Err(ConfigError::new("nodes", "at most 64 nodes supported"));
        }
        let caches = (0..layout.nodes())
            .map(|_| Cache::new(CacheConfig::paper_default()))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            layout,
            home_of,
            caches,
            entries: FnvMap::default(),
            report: TraversalReport::default(),
        })
    }

    /// The accumulated traversal distributions (matches
    /// [`crate::table1::LinkedListAccountant::report`] when the same
    /// stream is replayed in the same order).
    #[must_use]
    pub fn report(&self) -> TraversalReport {
        self.report
    }

    /// The home node of `block`.
    #[must_use]
    pub fn home(&self, block: BlockAddr) -> NodeId {
        (self.home_of)(block)
    }

    /// Non-mutating classification of a reference against `node`'s cache.
    #[must_use]
    pub fn peek(&self, node: NodeId, block: BlockAddr, kind: AccessKind) -> AccessClass {
        self.caches[node.index()].peek(block, kind)
    }

    /// `node`'s cache-line state for `block` (for the retire-time
    /// sanitizer).
    #[must_use]
    pub fn state_of(&self, node: NodeId, block: BlockAddr) -> LineState {
        self.caches[node.index()].state_of(block)
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.caches.len()
    }

    /// Serves one reference: classifies it, dispatches the home decision
    /// through [`crate::guarded::SCI_RULES`], applies the list and cache
    /// mutations, and accounts the ring traversals.
    pub fn process(&mut self, r: MemRef, counts: Option<&FireCounts>) -> SciStep {
        let node = r.node;
        let block = r.addr.block(16);
        match self.caches[node.index()].classify(block, r.kind) {
            AccessClass::Hit => SciStep::HIT,
            AccessClass::Upgrade => self.serve_upgrade(node, block, r.region, counts),
            AccessClass::Miss => self.serve_miss(node, block, r.kind, r.region, counts),
        }
    }

    fn serve_upgrade(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        region: Region,
        counts: Option<&FireCounts>,
    ) -> SciStep {
        let home = (self.home_of)(block);
        let entry = self.entries.entry(block.raw()).or_default();
        debug_assert!(entry.contains(node), "upgrader must be a sharer");
        let action = sci_action(SciRequest::Upgrade, entry.list.len(), true, counts);
        debug_assert!(
            matches!(action, SciAction::PurgeOthersAndClaim | SciAction::Claim),
            "unexpected {action:?}"
        );
        // SCI-style invalidation: the writer first detaches and re-attaches
        // as list head via the home (one round trip), then purges the
        // remaining members by walking the list in list order.
        let others = entry.others(node);
        let mut n =
            if home == node { 0 } else { self.layout.closed_path_traversals(&[node, home]) };
        if !others.is_empty() {
            let mut purge = vec![node];
            purge.extend(others.iter().copied());
            n += self.layout.closed_path_traversals(&purge);
        }
        if region == Region::Shared {
            self.report.invalidate.record(n);
        }
        for peer in &others {
            self.caches[peer.index()].snoop_invalidate(block);
        }
        entry.list = vec![node];
        entry.dirty = true;
        self.caches[node.index()].promote(block);
        SciStep {
            class: AccessClass::Upgrade,
            traversals: n,
            dirty_supply: false,
            invalidated: others.len(),
        }
    }

    fn serve_miss(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        kind: AccessKind,
        region: Region,
        counts: Option<&FireCounts>,
    ) -> SciStep {
        let home = (self.home_of)(block);
        let entry = self.entries.entry(block.raw()).or_default();
        let req = if kind.is_write() { SciRequest::Write } else { SciRequest::Read };
        let action = sci_action(req, entry.list.len(), false, counts);
        let dirty_supply = entry.dirty && !entry.list.is_empty();
        let mut path = vec![node];
        if home != node {
            path.push(home);
        }
        match action {
            SciAction::GrantFromMemory | SciAction::GrantClaim | SciAction::Claim => {}
            SciAction::ForwardToHead => {
                if let Some(&head) = entry.list.first() {
                    path.push(head);
                }
            }
            SciAction::PurgeAndClaim => {
                // Data comes from the head; the rest of the list is
                // invalidated by walking it in order.
                path.extend(entry.list.iter().copied());
            }
            SciAction::PurgeOthersAndClaim | SciAction::Splice => {
                unreachable!("miss dispatch cannot yield {action:?}")
            }
        }
        let n = if path.len() == 1 { 0 } else { self.layout.closed_path_traversals(&path) };
        if region == Region::Shared {
            self.report.miss.record(n);
        }
        let mut invalidated = 0;
        match kind {
            AccessKind::Read => {
                if entry.dirty {
                    if let Some(&head) = entry.list.first() {
                        self.caches[head.index()].snoop_downgrade(block);
                    }
                    entry.dirty = false;
                }
                entry.list.insert(0, node);
            }
            AccessKind::Write => {
                invalidated = entry.list.len();
                for peer in entry.list.clone() {
                    self.caches[peer.index()].snoop_invalidate(block);
                }
                entry.list = vec![node];
                entry.dirty = true;
            }
        }
        let state = if kind.is_write() { LineState::We } else { LineState::Rs };
        if let Some((victim, _)) = self.caches[node.index()].fill(block, state) {
            // SCI rollout: detach from the victim's sharing list.
            if let Some(v) = self.entries.get_mut(&victim.raw()) {
                let act = sci_action(SciRequest::Rollout, v.list.len(), v.contains(node), counts);
                debug_assert_eq!(act, SciAction::Splice);
                v.splice(node);
            }
        }
        SciStep { class: AccessClass::Miss, traversals: n, dirty_supply, invalidated }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::LinkedListAccountant;
    use ringsim_ring::RingConfig;
    use ringsim_trace::{Workload, WorkloadSpec};

    fn layout(n: usize) -> RingLayout {
        RingConfig::standard_500mhz(n).layout().unwrap()
    }

    #[test]
    fn engine_matches_the_accountant_on_a_demo_stream() {
        let mut w = Workload::new(WorkloadSpec::demo(16)).unwrap();
        let space = w.space();
        let mut acct =
            LinkedListAccountant::new(layout(16), move |b| space.home_of_block(b)).unwrap();
        let space2 = w.space();
        let mut engine = SciEngine::new(layout(16), move |b| space2.home_of_block(b)).unwrap();
        let counts = FireCounts::new();
        for r in w.round_robin(4_000) {
            acct.process(r);
            engine.process(r, Some(&counts));
        }
        assert_eq!(engine.report(), acct.report());
        // A busy demo stream exercises every non-rollout rule.
        let fired: Vec<&str> = counts
            .snapshot()
            .iter()
            .filter(|f| f.ruleset == "sci" && f.fired > 0)
            .map(|f| f.rule)
            .collect();
        assert!(fired.len() >= 5, "rules fired: {fired:?}");
    }

    #[test]
    fn worst_case_list_walk_matches_accountant() {
        use ringsim_types::{AccessKind::*, Addr, MemRef, Region::Shared};
        let mut engine = SciEngine::new(layout(16), |_| NodeId::new(0)).unwrap();
        let mk = |node: usize, kind| MemRef {
            node: NodeId::new(node),
            addr: Addr::new(0x300),
            kind,
            region: Shared,
        };
        engine.process(mk(4, Read), None);
        engine.process(mk(8, Read), None);
        engine.process(mk(12, Read), None);
        let step = engine.process(mk(14, Write), None);
        assert_eq!(step.class, AccessClass::Miss);
        assert!(step.traversals >= 3, "walking a descending list wraps: {step:?}");
        assert_eq!(step.invalidated, 3);
        assert_eq!(engine.report().miss.three_plus, 1);
    }

    #[test]
    fn dirty_head_supplies_read_misses() {
        use ringsim_types::{AccessKind::*, Addr, MemRef, Region::Shared};
        let mut engine = SciEngine::new(layout(8), |_| NodeId::new(0)).unwrap();
        let mk = |node: usize, kind| MemRef {
            node: NodeId::new(node),
            addr: Addr::new(0x40),
            kind,
            region: Shared,
        };
        engine.process(mk(3, Write), None);
        let step = engine.process(mk(5, Read), None);
        assert!(step.dirty_supply);
        assert_eq!(engine.state_of(NodeId::new(3), Addr::new(0x40).block(16)), LineState::Rs);
    }
}
