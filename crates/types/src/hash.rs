//! The workspace's one hasher for block-keyed tables.

/// [`std::hash::BuildHasher`] for the simulators' block-number maps — a
/// fast, non-keyed, deterministic hash.
///
/// `std`'s default SipHash is DoS-resistant but costs tens of cycles per
/// lookup. The coherence tables (caches' owners and presence bits, home
/// dirty bits, directory entries, interpreter block state) are keyed by
/// trusted internal block numbers, probed several times per miss, and
/// never iterated in an order that reaches observable output.
///
/// Block numbers carry their structure in the high bits: the address
/// space puts the node field at block bits 28–33, and the 64 nodes'
/// private and streaming regions repeat the same low bits. A hashbrown
/// table picks the bucket from the hash's low bits and its 7-bit probe
/// tag from the top bits, so the hash must mix every key bit into both
/// ends. FNV-1a's word step, `(h ^ v) * prime`, does not: bit *j* of a
/// product depends only on factor bits at or below *j*, so the node field
/// never reaches the low bits and those 64 blocks all share one bucket.
/// [`FnvHasher::write_u64`] instead takes a 64×64→128-bit product by an
/// odd constant and folds its high half onto its low half, which spreads
/// every key bit over the whole word. Byte writes keep the FNV-1a step.
///
/// # Examples
///
/// ```
/// use ringsim_types::FnvMap;
///
/// let mut owners: FnvMap<u64, &'static str> = FnvMap::default();
/// owners.insert(42, "node3");
/// assert_eq!(owners.get(&42), Some(&"node3"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

/// A `HashMap` using [`FnvBuildHasher`]. Construct with `FnvMap::default()`.
pub type FnvMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` using [`FnvBuildHasher`]. Construct with `FnvSet::default()`.
pub type FnvSet<K> = std::collections::HashSet<K, FnvBuildHasher>;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;
    #[inline]
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// Streaming hash state; see [`FnvBuildHasher`].
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        // Folded multiply: the high half of the 128-bit product carries
        // the key's high bits down, the low half its low bits up.
        let m = u128::from(self.0 ^ value) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hasher};

    fn hash(key: u64) -> u64 {
        let mut h = FnvBuildHasher.build_hasher();
        h.write_u64(key);
        h.finish()
    }

    /// The 64 nodes' blocks that differ only in the node field (block
    /// bits 28–33) must spread over hashbrown's bucket bits (low) and its
    /// probe-tag bits (top 7).
    #[test]
    fn node_field_reaches_bucket_and_tag_bits() {
        let keys: Vec<u64> = (0..64u64).map(|n| (5 << 40) | (n << 28) | 7).collect();
        let buckets: HashSet<u64> = keys.iter().map(|&k| hash(k) & 1023).collect();
        let tags: HashSet<u64> = keys.iter().map(|&k| hash(k) >> 57).collect();
        assert!(buckets.len() >= 48, "only {} distinct buckets", buckets.len());
        assert!(tags.len() >= 48, "only {} distinct tags", tags.len());
    }

    #[test]
    fn maps_and_sets_behave() {
        let mut map: FnvMap<u64, u32> = FnvMap::default();
        let mut set: FnvSet<u64> = FnvSet::default();
        for k in 0..1000u64 {
            map.insert(k << 28, k as u32);
            set.insert(k << 28);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(999 << 28)), Some(&999));
        assert!(set.contains(&(500 << 28)) && !set.contains(&1));
    }
}
