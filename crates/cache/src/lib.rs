//! Direct-mapped write-back coherent cache model.
//!
//! The paper evaluates 128 KB direct-mapped data caches with 16-byte blocks
//! and a three-state write-invalidate protocol. A cache line is in one of
//! three states ([`LineState`]): `Inv` (not present), `Rs` (read-shared) or
//! `We` (write-exclusive, i.e. dirty). This crate models only the
//! processor-side array; the coherence *protocol* (who supplies data, when
//! invalidations travel) lives in `ringsim-proto` and drives the cache
//! through the snoop methods.
//!
//! The access path is split in two because the simulators are timed: a
//! [`Cache::classify`] call decides hit/upgrade/miss without mutating
//! anything, and the fill ([`Cache::fill`]) or promotion
//! ([`Cache::promote`]) happens later, when the coherence transaction
//! completes.
//!
//! # Examples
//!
//! ```
//! use ringsim_cache::{Cache, CacheConfig, LineState, AccessClass};
//! use ringsim_types::{AccessKind, BlockAddr};
//!
//! let mut cache = Cache::new(CacheConfig::paper_default()).unwrap();
//! let b = BlockAddr::new(0x10);
//! assert_eq!(cache.classify(b, AccessKind::Read), AccessClass::Miss);
//! cache.fill(b, LineState::Rs);
//! assert_eq!(cache.classify(b, AccessKind::Read), AccessClass::Hit);
//! assert_eq!(cache.classify(b, AccessKind::Write), AccessClass::Upgrade);
//! cache.promote(b);
//! assert_eq!(cache.classify(b, AccessKind::Write), AccessClass::Hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use ringsim_types::{AccessKind, BlockAddr, ConfigError};

/// Coherence state of one cache line (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LineState {
    /// Block not present.
    Inv,
    /// Read-Shared: present read-only, memory is up to date.
    Rs,
    /// Write-Exclusive: present read-write; this cache owns the only valid
    /// copy and must supply it / write it back.
    We,
}

impl LineState {
    /// `true` for any valid (non-`Inv`) state.
    #[must_use]
    pub const fn is_valid(self) -> bool {
        !matches!(self, LineState::Inv)
    }

    /// `true` for `We`.
    #[must_use]
    pub const fn is_dirty(self) -> bool {
        matches!(self, LineState::We)
    }
}

/// Classification of a processor access against the current cache contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessClass {
    /// Read hit on `Rs`/`We`, or write hit on `We`: no coherence action.
    Hit,
    /// Write to a block held in `Rs`: the processor must obtain write
    /// permission (an *invalidation* transaction in the paper's terminology)
    /// but no data transfer is needed.
    Upgrade,
    /// Block absent (or present under a conflicting tag): a miss that needs
    /// a data transfer.
    Miss,
}

/// Geometry of a direct-mapped cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache block (line) size in bytes.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// The configuration used throughout the paper's evaluation: 128 KB
    /// direct-mapped with 16-byte blocks.
    #[must_use]
    pub const fn paper_default() -> Self {
        Self { size_bytes: 128 * 1024, block_bytes: 16 }
    }

    /// Number of lines in the cache.
    #[must_use]
    pub const fn lines(&self) -> u64 {
        self.size_bytes / self.block_bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either size is zero or not a power of
    /// two, or the block does not fit in the cache.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.size_bytes == 0 || !self.size_bytes.is_power_of_two() {
            return Err(ConfigError::new("size_bytes", "must be a non-zero power of two"));
        }
        if self.block_bytes == 0 || !self.block_bytes.is_power_of_two() {
            return Err(ConfigError::new("block_bytes", "must be a non-zero power of two"));
        }
        if self.block_bytes > self.size_bytes {
            return Err(ConfigError::new("block_bytes", "block larger than cache"));
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A valid line in the serialised form of a [`Cache`], which holds one of
/// these or `null` per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Line {
    tag: u64,
    state: LineState,
}

/// Line-word state codes. A word is `tag << 2 | state`, so the all-zero
/// word of a freshly allocated array is an empty (`Inv`) line.
const WORD_RS: u64 = 1;
const WORD_WE: u64 = 2;
const WORD_STATE: u64 = 3;

/// Tags below this bound fit a 32-bit word.
const NARROW_TAG_LIMIT: u64 = 1 << 30;
/// Tags below this bound fit a 64-bit word.
const WIDE_TAG_LIMIT: u64 = 1 << 62;

#[inline]
fn encode(tag: u64, state: LineState) -> u64 {
    match state {
        LineState::Inv => 0,
        LineState::Rs => tag << 2 | WORD_RS,
        LineState::We => tag << 2 | WORD_WE,
    }
}

#[inline]
fn word_state(word: u64) -> LineState {
    match word & WORD_STATE {
        WORD_RS => LineState::Rs,
        WORD_WE => LineState::We,
        _ => LineState::Inv,
    }
}

/// The line array, one word per line.
///
/// A paper cache (8192 lines) packs into 32 KiB this way, so the caches
/// of 64 processors (2 MiB) fit a host's L2. Tags that need more than 30
/// bits, which only arbitrary trace addresses produce, switch the array
/// once to 64-bit words.
#[derive(Debug, Clone)]
enum Lines {
    /// Every stored tag is below [`NARROW_TAG_LIMIT`].
    Narrow(Vec<u32>),
    /// Any tag below [`WIDE_TAG_LIMIT`].
    Wide(Vec<u64>),
}

impl Lines {
    #[inline]
    fn word(&self, idx: usize) -> u64 {
        match self {
            Lines::Narrow(words) => u64::from(words[idx]),
            Lines::Wide(words) => words[idx],
        }
    }

    /// Stores `word` at `idx`; a narrow array must have been widened for
    /// a tag of [`NARROW_TAG_LIMIT`] or more.
    #[inline]
    fn set(&mut self, idx: usize, word: u64) {
        match self {
            Lines::Narrow(words) => {
                words[idx] = u32::try_from(word).expect("a wide tag widens the lines first");
            }
            Lines::Wide(words) => words[idx] = word,
        }
    }

    fn widen(&mut self) {
        if let Lines::Narrow(words) = self {
            *self = Lines::Wide(words.iter().map(|&w| u64::from(w)).collect());
        }
    }

    fn len(&self) -> usize {
        match self {
            Lines::Narrow(words) => words.len(),
            Lines::Wide(words) => words.len(),
        }
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|idx| self.word(idx))
    }
}

/// Equal contents compare equal whether or not either side was widened.
impl PartialEq for Lines {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.words().eq(other.words())
    }
}

impl Serialize for Lines {
    fn to_value(&self) -> serde::Value {
        let lines: Vec<Option<Line>> = self
            .words()
            .map(|w| (w != 0).then(|| Line { tag: w >> 2, state: word_state(w) }))
            .collect();
        lines.to_value()
    }
}

impl Deserialize for Lines {
    fn from_value(v: &serde::Value) -> Option<Self> {
        let lines = Vec::<Option<Line>>::from_value(v)?;
        let mut out = Lines::Narrow(vec![0; lines.len()]);
        for (idx, line) in lines.iter().enumerate() {
            if let Some(Line { tag, state }) = *line {
                if tag >= WIDE_TAG_LIMIT || !state.is_valid() {
                    return None;
                }
                if tag >= NARROW_TAG_LIMIT {
                    out.widen();
                }
                out.set(idx, encode(tag, state));
            }
        }
        Some(out)
    }
}

/// Per-cache event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read or write hits.
    pub hits: u64,
    /// Misses (including cold and conflict misses).
    pub misses: u64,
    /// Write hits on `Rs` lines (coherence upgrades).
    pub upgrades: u64,
    /// Lines invalidated by remote coherence activity.
    pub snoop_invalidations: u64,
    /// `We` lines downgraded to `Rs` by remote read misses.
    pub snoop_downgrades: u64,
    /// Dirty lines evicted (write-backs).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio over all classified accesses (upgrades count as accesses
    /// but not as misses, matching the paper's Table 2).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.upgrades;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A direct-mapped write-back cache with three-state lines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Lines,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-`Inv`) cache.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid (see
    /// [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let lines = Lines::Narrow(vec![0; cfg.lines() as usize]);
        Ok(Self { cfg, lines, stats: CacheStats::default() })
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated event counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn slot(&self, block: BlockAddr) -> (usize, u64) {
        // Both sizes are validated powers of two, so the line count is one
        // as well: index and tag are a mask and a shift, avoiding two u64
        // divisions on a path every access classification goes through.
        let shift = self.cfg.size_bytes.trailing_zeros() - self.cfg.block_bytes.trailing_zeros();
        debug_assert_eq!(1u64 << shift, self.cfg.lines());
        let idx = (block.raw() & ((1u64 << shift) - 1)) as usize;
        let tag = block.raw() >> shift;
        (idx, tag)
    }

    /// The line word of `block`'s index when it holds `block`, else 0.
    #[inline]
    fn resident_word(&self, block: BlockAddr) -> (usize, u64) {
        let (idx, tag) = self.slot(block);
        let word = self.lines.word(idx);
        (idx, if word != 0 && word >> 2 == tag { word } else { 0 })
    }

    fn block_of(&self, idx: usize, word: u64) -> BlockAddr {
        BlockAddr::new((word >> 2) * self.cfg.lines() + idx as u64)
    }

    /// Current state of `block` in this cache (`Inv` when absent).
    #[must_use]
    #[inline]
    pub fn state_of(&self, block: BlockAddr) -> LineState {
        word_state(self.resident_word(block).1)
    }

    /// Classifies an access *without* changing cache contents, and updates
    /// the hit/miss/upgrade counters.
    ///
    /// The caller performs the resulting coherence transaction (if any) and
    /// then calls [`Cache::fill`] or [`Cache::promote`].
    #[inline]
    pub fn classify(&mut self, block: BlockAddr, kind: AccessKind) -> AccessClass {
        let class = self.peek(block, kind);
        match class {
            AccessClass::Hit => self.stats.hits += 1,
            AccessClass::Miss => self.stats.misses += 1,
            AccessClass::Upgrade => self.stats.upgrades += 1,
        }
        class
    }

    /// Like [`Cache::classify`] but without touching the statistics — used
    /// by lookahead code paths that only want to know whether an access
    /// would stall.
    #[must_use]
    #[inline]
    pub fn peek(&self, block: BlockAddr, kind: AccessKind) -> AccessClass {
        match (self.state_of(block), kind) {
            (LineState::Inv, _) => AccessClass::Miss,
            (LineState::Rs, AccessKind::Write) => AccessClass::Upgrade,
            _ => AccessClass::Hit,
        }
    }

    /// Installs `block` in `state`, returning the victim line (block number
    /// and state) if a valid line had to be evicted. A `We` victim must be
    /// written back by the caller; the `writebacks` counter is bumped here.
    ///
    /// # Panics
    ///
    /// Panics if `state` is `Inv` (filling a line as invalid is a protocol
    /// bug), or if the block's tag needs more than 62 bits, which takes a
    /// block number of 2^62 or more in a cache of fewer than four lines.
    #[inline]
    pub fn fill(&mut self, block: BlockAddr, state: LineState) -> Option<(BlockAddr, LineState)> {
        assert!(state.is_valid(), "cannot fill a line in Inv state");
        let (idx, tag) = self.slot(block);
        if tag >= NARROW_TAG_LIMIT {
            assert!(tag < WIDE_TAG_LIMIT, "{block}: tag does not fit a 64-bit line word");
            self.lines.widen();
        }
        let old = self.lines.word(idx);
        let victim = if old != 0 && old >> 2 != tag {
            let victim_state = word_state(old);
            if victim_state.is_dirty() {
                self.stats.writebacks += 1;
            }
            Some((self.block_of(idx, old), victim_state))
        } else {
            None
        };
        self.lines.set(idx, encode(tag, state));
        victim
    }

    /// Promotes an `Rs` line to `We` after a successful upgrade transaction.
    ///
    /// Returns `false` (and leaves the cache unchanged) when the line is no
    /// longer present — a remote write may have invalidated it while the
    /// upgrade was in flight, in which case the access must be retried as a
    /// write miss.
    #[inline]
    pub fn promote(&mut self, block: BlockAddr) -> bool {
        let (idx, word) = self.resident_word(block);
        if word == 0 {
            return false;
        }
        self.lines.set(idx, word & !WORD_STATE | WORD_WE);
        true
    }

    /// Invalidates `block` if present (remote write miss / invalidation
    /// observed). Returns the state the line was in.
    #[inline]
    pub fn snoop_invalidate(&mut self, block: BlockAddr) -> LineState {
        let (idx, word) = self.resident_word(block);
        if word != 0 {
            self.lines.set(idx, 0);
            self.stats.snoop_invalidations += 1;
        }
        word_state(word)
    }

    /// Downgrades a `We` line to `Rs` (remote read miss observed by the
    /// dirty node). Returns `true` when the line was indeed `We`.
    #[inline]
    pub fn snoop_downgrade(&mut self, block: BlockAddr) -> bool {
        let (idx, word) = self.resident_word(block);
        if !word_state(word).is_dirty() {
            return false;
        }
        self.lines.set(idx, word & !WORD_STATE | WORD_RS);
        self.stats.snoop_downgrades += 1;
        true
    }

    /// Evicts `block` if present without recording a write-back (used by
    /// tests and by protocol paths that account for the write-back
    /// themselves). Returns the prior state.
    pub fn evict(&mut self, block: BlockAddr) -> LineState {
        let (idx, word) = self.resident_word(block);
        if word != 0 {
            self.lines.set(idx, 0);
        }
        word_state(word)
    }

    /// Iterates over all valid blocks currently cached, with their states.
    pub fn resident_blocks(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.lines
            .words()
            .enumerate()
            .filter(|&(_, word)| word != 0)
            .map(|(idx, word)| (self.block_of(idx, word), word_state(word)))
    }

    /// Number of valid lines.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.lines.words().filter(|&word| word != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_types::AccessKind::{Read, Write};

    fn small() -> Cache {
        Cache::new(CacheConfig { size_bytes: 256, block_bytes: 16 }).unwrap()
    }

    #[test]
    fn paper_default_geometry() {
        let cfg = CacheConfig::paper_default();
        assert_eq!(cfg.lines(), 8192);
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(CacheConfig { size_bytes: 100, block_bytes: 16 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 128, block_bytes: 0 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 16, block_bytes: 64 }.validate().is_err());
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let b = BlockAddr::new(3);
        assert_eq!(c.classify(b, Read), AccessClass::Miss);
        assert_eq!(c.fill(b, LineState::Rs), None);
        assert_eq!(c.classify(b, Read), AccessClass::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_on_rs_is_upgrade() {
        let mut c = small();
        let b = BlockAddr::new(7);
        c.fill(b, LineState::Rs);
        assert_eq!(c.classify(b, Write), AccessClass::Upgrade);
        assert!(c.promote(b));
        assert_eq!(c.classify(b, Write), AccessClass::Hit);
        assert_eq!(c.state_of(b), LineState::We);
    }

    #[test]
    fn promote_fails_after_remote_invalidation() {
        let mut c = small();
        let b = BlockAddr::new(9);
        c.fill(b, LineState::Rs);
        assert_eq!(c.snoop_invalidate(b), LineState::Rs);
        assert!(!c.promote(b));
        assert_eq!(c.state_of(b), LineState::Inv);
    }

    #[test]
    fn conflict_eviction_reports_victim() {
        let mut c = small(); // 16 lines
        let a = BlockAddr::new(5);
        let b = BlockAddr::new(5 + 16); // same index, different tag
        c.fill(a, LineState::We);
        let victim = c.fill(b, LineState::Rs);
        assert_eq!(victim, Some((a, LineState::We)));
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.state_of(a), LineState::Inv);
        assert_eq!(c.state_of(b), LineState::Rs);
    }

    #[test]
    fn refill_same_block_is_not_eviction() {
        let mut c = small();
        let a = BlockAddr::new(5);
        c.fill(a, LineState::Rs);
        assert_eq!(c.fill(a, LineState::We), None);
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.state_of(a), LineState::We);
    }

    #[test]
    fn snoop_downgrade_only_hits_we() {
        let mut c = small();
        let a = BlockAddr::new(2);
        c.fill(a, LineState::Rs);
        assert!(!c.snoop_downgrade(a));
        c.promote(a);
        assert!(c.snoop_downgrade(a));
        assert_eq!(c.state_of(a), LineState::Rs);
        assert_eq!(c.stats().snoop_downgrades, 1);
    }

    #[test]
    fn snoop_invalidate_misses_are_noops() {
        let mut c = small();
        assert_eq!(c.snoop_invalidate(BlockAddr::new(77)), LineState::Inv);
        assert_eq!(c.stats().snoop_invalidations, 0);
    }

    #[test]
    fn resident_blocks_roundtrip() {
        let mut c = small();
        c.fill(BlockAddr::new(1), LineState::Rs);
        c.fill(BlockAddr::new(2), LineState::We);
        let mut resident: Vec<_> = c.resident_blocks().collect();
        resident.sort_by_key(|(b, _)| b.raw());
        assert_eq!(
            resident,
            vec![(BlockAddr::new(1), LineState::Rs), (BlockAddr::new(2), LineState::We)]
        );
        assert_eq!(c.valid_lines(), 2);
    }

    #[test]
    fn paper_lines_are_four_bytes_and_wide_tags_widen_in_place() {
        let mut c = Cache::new(CacheConfig::paper_default()).unwrap();
        let Lines::Narrow(words) = &c.lines else { panic!("a new cache starts narrow") };
        assert_eq!(std::mem::size_of_val(words.as_slice()), 4 * 8192);
        // Narrow lines, filled out of index order, one of them dirty.
        let narrow = [BlockAddr::new(8192 * 3 + 9), BlockAddr::new(5), BlockAddr::new(8192 + 70)];
        c.fill(narrow[0], LineState::We);
        c.fill(narrow[1], LineState::Rs);
        c.fill(narrow[2], LineState::Rs);
        let before: Vec<_> = c.resident_blocks().collect();
        // Tag 2^30 needs a 64-bit word.
        let wide = BlockAddr::new((1 << 43) + 70);
        assert_eq!(c.fill(wide, LineState::We), Some((narrow[2], LineState::Rs)));
        assert!(matches!(c.lines, Lines::Wide(_)));
        let expect: Vec<_> = before
            .iter()
            .map(|&(b, s)| if b == narrow[2] { (wide, LineState::We) } else { (b, s) })
            .collect();
        assert_eq!(c.resident_blocks().collect::<Vec<_>>(), expect);
        assert_eq!(c.state_of(narrow[0]), LineState::We);
        assert!(c.snoop_downgrade(wide));
        assert_eq!(c.state_of(wide), LineState::Rs);
        assert_eq!(c.snoop_invalidate(wide), LineState::Rs);
        assert_eq!(c.valid_lines(), 2);
    }

    #[test]
    fn serialised_shape_round_trips_across_widths() {
        use serde::{Deserialize, Serialize};
        let mut c = small();
        c.fill(BlockAddr::new(3), LineState::We);
        let narrow = c.to_value();
        assert_eq!(Cache::from_value(&narrow), Some(c.clone()));
        c.fill(BlockAddr::new(1 << 40 | 4), LineState::Rs);
        let back = Cache::from_value(&c.to_value()).unwrap();
        assert!(matches!(back.lines, Lines::Wide(_)));
        assert_eq!(back, c);
    }

    #[test]
    fn miss_rate_counts_upgrades_as_accesses() {
        let mut c = small();
        let b = BlockAddr::new(0);
        c.classify(b, Read); // miss
        c.fill(b, LineState::Rs);
        c.classify(b, Read); // hit
        c.classify(b, Write); // upgrade
        assert!((c.stats().miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = small();
        let b = BlockAddr::new(0);
        assert_eq!(c.peek(b, Read), AccessClass::Miss);
        assert_eq!(c.stats().misses, 0);
        c.fill(b, LineState::Rs);
        assert_eq!(c.peek(b, Write), AccessClass::Upgrade);
        assert_eq!(c.stats().upgrades, 0);
    }

    #[test]
    fn evict_returns_prior_state() {
        let mut c = small();
        let b = BlockAddr::new(4);
        c.fill(b, LineState::We);
        assert_eq!(c.evict(b), LineState::We);
        assert_eq!(c.evict(b), LineState::Inv);
        assert_eq!(c.stats().writebacks, 0);
    }
}
