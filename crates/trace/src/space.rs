use serde::{Deserialize, Serialize};

use ringsim_types::{Addr, BlockAddr, NodeId, PageAddr, Region};

/// Cache block size used by the synthetic address map (the paper's 16
/// bytes). The simulators read the block size from their own configs; this
/// constant only fixes how the generator lays out its pools.
pub const BLOCK_BYTES: u64 = 16;

/// Page size used for home-node placement (4 KB).
pub const PAGE_BYTES: u64 = 4096;

const REGION_SHIFT: u32 = 44;
const REGION_PRIVATE: u64 = 1;
const REGION_READ_ONLY: u64 = 2;
const REGION_MIGRATORY: u64 = 3;
const REGION_PRODCONS: u64 = 4;
const REGION_STREAM: u64 = 5;
const PRIVATE_NODE_SHIFT: u32 = 32;

/// Block-index offsets that keep the small pools on disjoint direct-mapped
/// cache lines (8192 lines for the paper's 128 KB / 16 B cache), so the
/// miss-rate knobs compose predictably. The large cold pool deliberately
/// spans all lines.
const HOT_LINE_BASE: u64 = 0;
const RO_LINE_BASE: u64 = 2048;
const MIG_LINE_BASE: u64 = 4096;
const PC_LINE_BASE: u64 = 5120;
const COLD_LINE_BASE: u64 = 0;
const STREAM_LINE_BASE: u64 = 6144;
const STREAM_LINE_SPAN: u64 = 2048;
const CACHE_LINES: u64 = 8192;

/// The synthetic workload's address map.
///
/// Regions are separated by high address bits; the node that owns a private
/// page is recoverable from the address, and shared pages are placed on
/// pseudo-random home nodes (the paper's "random allocation of shared memory
/// pages among the nodes").
///
/// # Examples
///
/// ```
/// use ringsim_trace::AddressSpace;
/// use ringsim_types::{NodeId, Region};
///
/// let space = AddressSpace::new(16, 42);
/// let a = space.private_addr(NodeId::new(3), 10);
/// assert_eq!(space.region_of(a), Region::Private);
/// assert_eq!(space.home_of(a), NodeId::new(3));
///
/// let s = space.migratory_addr(0);
/// assert_eq!(space.region_of(s), Region::Shared);
/// assert!(space.home_of(s).index() < 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressSpace {
    nodes: usize,
    placement_seed: u64,
}

impl AddressSpace {
    /// Creates the map for an `n`-node system; `placement_seed` randomises
    /// the shared-page-to-home assignment.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn new(nodes: usize, placement_seed: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        Self { nodes, placement_seed }
    }

    /// Number of nodes in the system.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn compose(region: u64, sub: u64, block_index: u64) -> Addr {
        Addr::new(
            (region << REGION_SHIFT) | (sub << PRIVATE_NODE_SHIFT) | (block_index * BLOCK_BYTES),
        )
    }

    /// Address of block `index` of `node`'s private pool. Indices below the
    /// hot-pool size land on dedicated cache lines; see `hot`/`cold` callers
    /// in the generator.
    #[must_use]
    pub fn private_addr(self, node: NodeId, index: u64) -> Addr {
        Self::compose(REGION_PRIVATE, node.index() as u64, HOT_LINE_BASE + index)
    }

    /// Address of block `index` of `node`'s private *cold* pool.
    #[must_use]
    pub fn private_cold_addr(self, node: NodeId, index: u64) -> Addr {
        // Offset by a large constant so cold blocks never alias hot blocks
        // as the *same* block, while still mapping across all cache lines.
        Self::compose(REGION_PRIVATE, node.index() as u64, COLD_LINE_BASE + (1 << 20) + index)
    }

    /// Address of block `index` of the shared read-only pool.
    #[must_use]
    pub fn read_only_addr(self, index: u64) -> Addr {
        Self::compose(REGION_READ_ONLY, 0, RO_LINE_BASE + index)
    }

    /// Address of block `index` of the shared migratory pool.
    #[must_use]
    pub fn migratory_addr(self, index: u64) -> Addr {
        Self::compose(REGION_MIGRATORY, 0, MIG_LINE_BASE + index)
    }

    /// Address of block `index` of the shared producer-consumer pool.
    #[must_use]
    pub fn prodcons_addr(self, index: u64) -> Addr {
        Self::compose(REGION_PRODCONS, 0, PC_LINE_BASE + index)
    }

    /// Address of the `counter`-th streaming block touched by `node`.
    /// Streaming blocks are never revisited, so each node gets a disjoint,
    /// monotonically advancing index range. The blocks are laid out so they
    /// only ever map onto cache lines 6144..8192 — a range no other pool
    /// uses — so the streaming sweep evicts only itself.
    #[must_use]
    pub fn stream_addr(self, node: NodeId, counter: u64) -> Addr {
        let idx = (counter / STREAM_LINE_SPAN) * CACHE_LINES
            + STREAM_LINE_BASE
            + counter % STREAM_LINE_SPAN;
        Self::compose(REGION_STREAM, node.index() as u64, idx)
    }

    /// The producer (writer) of producer-consumer block `index`.
    #[must_use]
    pub fn producer_of(self, index: u64) -> NodeId {
        NodeId::new((index % self.nodes as u64) as usize)
    }

    /// Region of an address generated by this map.
    ///
    /// # Panics
    ///
    /// Panics on addresses not produced by this map.
    #[must_use]
    pub fn region_of(self, addr: Addr) -> Region {
        match addr.raw() >> REGION_SHIFT {
            REGION_PRIVATE => Region::Private,
            REGION_READ_ONLY | REGION_MIGRATORY | REGION_PRODCONS | REGION_STREAM => Region::Shared,
            other => panic!("address {addr} in unknown region {other}"),
        }
    }

    /// Home node of the page containing `addr`: the owning node for private
    /// pages, a pseudo-random node for shared pages.
    #[must_use]
    #[inline]
    pub fn home_of(self, addr: Addr) -> NodeId {
        match self.region_of(addr) {
            Region::Private => NodeId::new(((addr.raw() >> PRIVATE_NODE_SHIFT) & 0xfff) as usize),
            Region::Shared => self.home_of_page(addr.page(PAGE_BYTES)),
        }
    }

    /// Home node of the block `block` (block numbers are relative to
    /// [`BLOCK_BYTES`]).
    #[must_use]
    #[inline]
    pub fn home_of_block(self, block: BlockAddr) -> NodeId {
        self.home_of(block.base_addr(BLOCK_BYTES))
    }

    #[inline]
    fn home_of_page(self, page: PageAddr) -> NodeId {
        // SplitMix64-style hash of (page, seed): stable pseudo-random
        // placement, uniform across nodes.
        let mut z = page.raw() ^ self.placement_seed.rotate_left(17);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        NodeId::new((z % self.nodes as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_home_is_owner() {
        let s = AddressSpace::new(8, 1);
        for n in 0..8 {
            let node = NodeId::new(n);
            assert_eq!(s.home_of(s.private_addr(node, 5)), node);
            assert_eq!(s.home_of(s.private_cold_addr(node, 999)), node);
        }
    }

    #[test]
    fn regions_are_disjoint() {
        let s = AddressSpace::new(4, 1);
        let a = s.private_addr(NodeId::new(0), 0);
        let b = s.read_only_addr(0);
        let c = s.migratory_addr(0);
        let d = s.prodcons_addr(0);
        let blocks: Vec<u64> = [a, b, c, d].iter().map(|x| x.block(BLOCK_BYTES).raw()).collect();
        let mut unique = blocks.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), blocks.len());
        assert_eq!(s.region_of(a), Region::Private);
        for x in [b, c, d] {
            assert_eq!(s.region_of(x), Region::Shared);
        }
    }

    #[test]
    fn shared_pages_spread_over_nodes() {
        let s = AddressSpace::new(16, 7);
        let mut counts = [0u32; 16];
        for i in 0..4096 {
            // Pages differ every 256 blocks of 16 bytes.
            counts[s.home_of(s.read_only_addr(i * 256)).index()] += 1;
        }
        for (n, &c) in counts.iter().enumerate() {
            assert!(c > 128, "node {n} got only {c} of 4096 pages");
        }
    }

    #[test]
    fn home_is_stable_per_page() {
        let s = AddressSpace::new(8, 3);
        let a = s.migratory_addr(3);
        let b = s.migratory_addr(4); // likely same 4 KB page
        if a.page(PAGE_BYTES) == b.page(PAGE_BYTES) {
            assert_eq!(s.home_of(a), s.home_of(b));
        }
        assert_eq!(s.home_of(a), s.home_of(a));
    }

    #[test]
    fn producers_cycle_over_nodes() {
        let s = AddressSpace::new(4, 1);
        assert_eq!(s.producer_of(0), NodeId::new(0));
        assert_eq!(s.producer_of(5), NodeId::new(1));
        assert_eq!(s.producer_of(7), NodeId::new(3));
    }

    #[test]
    fn home_of_block_agrees_with_home_of_addr() {
        let s = AddressSpace::new(8, 9);
        let a = s.prodcons_addr(17);
        assert_eq!(s.home_of_block(a.block(BLOCK_BYTES)), s.home_of(a));
    }

    #[test]
    fn pool_line_bases_avoid_small_pool_conflicts() {
        // Hot (0..2048), RO (2048..4096), migratory (4096..5120) and
        // producer-consumer (5120..8192) pools occupy disjoint line ranges
        // of an 8192-line direct-mapped cache.
        let s = AddressSpace::new(4, 1);
        let lines = 8192u64;
        let hot_line = s.private_addr(NodeId::new(1), 0).block(BLOCK_BYTES).raw() % lines;
        let ro_line = s.read_only_addr(0).block(BLOCK_BYTES).raw() % lines;
        let mig_line = s.migratory_addr(0).block(BLOCK_BYTES).raw() % lines;
        let pc_line = s.prodcons_addr(0).block(BLOCK_BYTES).raw() % lines;
        assert_eq!(hot_line, 0);
        assert_eq!(ro_line, 2048);
        assert_eq!(mig_line, 4096);
        assert_eq!(pc_line, 5120);
    }
}
