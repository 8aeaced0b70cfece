use core::fmt;

use serde::{Deserialize, Serialize};

/// A physical byte address.
///
/// Addresses are plain 64-bit values; block and page views are derived with
/// an explicit size so that the block size stays a run-time simulation
/// parameter (the paper sweeps 16–128 byte blocks in Table 3).
///
/// # Examples
///
/// ```
/// use ringsim_types::Addr;
///
/// let a = Addr::new(0x1fe8);
/// assert_eq!(a.block(16).raw(), 0x1fe);
/// assert_eq!(a.page(4096).raw(), 0x1);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Raw byte value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache block containing this address.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    #[must_use]
    #[inline]
    pub fn block(self, block_size: u64) -> BlockAddr {
        assert!(block_size.is_power_of_two(), "block size must be a power of two");
        BlockAddr(self.0 >> block_size.trailing_zeros())
    }

    /// The page containing this address.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    #[must_use]
    pub fn page(self, page_size: u64) -> PageAddr {
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        PageAddr(self.0 >> page_size.trailing_zeros())
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

/// A cache-block-aligned address (byte address divided by the block size).
///
/// The probe-slot parity rule of the slotted ring (one probe slot for even
/// blocks, one for odd blocks) is exposed via [`BlockAddr::is_even`].
///
/// # Examples
///
/// ```
/// use ringsim_types::BlockAddr;
///
/// assert!(BlockAddr::new(4).is_even());
/// assert!(!BlockAddr::new(5).is_even());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a raw block number.
    #[must_use]
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Raw block number.
    #[must_use]
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether this block has an even block number.
    ///
    /// Even blocks use the even probe slot of each ring frame, odd blocks the
    /// odd probe slot, so that the dual snooping directory can be 2-way
    /// interleaved (paper §3.3).
    #[must_use]
    #[inline]
    pub const fn is_even(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// The first byte address of the block, given the block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    #[must_use]
    #[inline]
    pub fn base_addr(self, block_size: u64) -> Addr {
        assert!(block_size.is_power_of_two(), "block size must be a power of two");
        Addr(self.0 << block_size.trailing_zeros())
    }

    /// The page containing this block.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` or `block_size` is not a power of two, or if the
    /// block is larger than the page.
    #[must_use]
    #[inline]
    pub fn page(self, block_size: u64, page_size: u64) -> PageAddr {
        assert!(block_size <= page_size, "block larger than page");
        self.base_addr(block_size).page(page_size)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{:#x}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

/// A page-aligned address. Pages are the unit of home-node placement: the
/// paper allocates shared pages pseudo-randomly among the nodes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page address from a raw page number.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Raw page number.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{:#x}", self.0)
    }
}

impl From<u64> for PageAddr {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_extraction() {
        let a = Addr::new(0x12345);
        assert_eq!(a.block(16), BlockAddr::new(0x1234));
        assert_eq!(a.block(64), BlockAddr::new(0x48d));
    }

    #[test]
    fn parity_matches_block_number() {
        assert!(Addr::new(0x20).block(16).is_even());
        assert!(!Addr::new(0x30).block(16).is_even());
    }

    #[test]
    fn base_addr_roundtrip() {
        let b = Addr::new(0xabcd).block(16);
        let base = b.base_addr(16);
        assert_eq!(base.raw(), 0xabc0);
        assert_eq!(base.block(16), b);
    }

    #[test]
    fn page_of_block_matches_page_of_addr() {
        let a = Addr::new(0x7_1234);
        assert_eq!(a.block(16).page(16, 4096), a.page(4096));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_block() {
        let _ = Addr::new(0).block(24);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(0xff).to_string(), "0xff");
        assert_eq!(BlockAddr::new(0xf).to_string(), "B0xf");
        assert_eq!(PageAddr::new(2).to_string(), "pg0x2");
    }
}
