use ringsim_types::{BlockAddr, FnvSet};

/// Memory-side state of the snooping protocol: one dirty bit per block
/// (paper §3.1).
///
/// When the dirty bit is clear, the home node owns the block and answers
/// probes; when it is set, some cache holds the block write-exclusive and
/// the home stays silent. The home does not know *which* cache — that is the
/// essence of snooping.
///
/// # Examples
///
/// ```
/// use ringsim_proto::HomeMemory;
/// use ringsim_types::BlockAddr;
///
/// let mut mem = HomeMemory::default();
/// let b = BlockAddr::new(7);
/// assert!(!mem.is_dirty(b));
/// mem.set_dirty(b);
/// assert!(mem.is_dirty(b));
/// mem.clear_dirty(b);
/// assert!(!mem.is_dirty(b));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HomeMemory {
    dirty: FnvSet<u64>,
}

impl HomeMemory {
    /// Creates memory with all dirty bits clear.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the block's dirty bit is set.
    #[must_use]
    #[inline]
    pub fn is_dirty(&self, block: BlockAddr) -> bool {
        self.dirty.contains(&block.raw())
    }

    /// Sets the dirty bit (a cache took the block write-exclusive).
    #[inline]
    pub fn set_dirty(&mut self, block: BlockAddr) {
        self.dirty.insert(block.raw());
    }

    /// Clears the dirty bit (a write-back or downgrade refreshed memory).
    #[inline]
    pub fn clear_dirty(&mut self, block: BlockAddr) {
        self.dirty.remove(&block.raw());
    }

    /// Number of blocks currently dirty somewhere.
    #[must_use]
    pub fn dirty_blocks(&self) -> usize {
        self.dirty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_toggle_independently() {
        let mut m = HomeMemory::new();
        let a = BlockAddr::new(1);
        let b = BlockAddr::new(2);
        m.set_dirty(a);
        assert!(m.is_dirty(a));
        assert!(!m.is_dirty(b));
        m.set_dirty(b);
        m.clear_dirty(a);
        assert!(!m.is_dirty(a));
        assert!(m.is_dirty(b));
        assert_eq!(m.dirty_blocks(), 1);
    }

    #[test]
    fn clear_is_idempotent() {
        let mut m = HomeMemory::new();
        m.clear_dirty(BlockAddr::new(9));
        assert!(!m.is_dirty(BlockAddr::new(9)));
    }
}
