//! Allocation-free hot-path containers for the cycle-stepped simulators.
//!
//! The inner loops of [`RingSystem`](crate::RingSystem),
//! [`HierNetSim`](crate::HierNetSim) and the access-network models run
//! every interconnect cycle for tens of millions of cycles per run; the
//! `VecDeque` per node queue they originally used spends that loop
//! reallocating. This module provides the drop-in replacement:
//!
//! * [`RingBuf`] — a power-of-two-capacity FIFO with head/length masking.
//!   Same observable semantics as `VecDeque` for the operations the
//!   simulators use (`push_back` / `pop_front` / `push_front` / indexed
//!   `remove` / in-order iteration), but with no reallocation once warm.
//!
//! It is safe code (`forbid(unsafe_code)` crate); the property tests in
//! `tests/collections_prop.rs` drive it against `VecDeque` under random
//! operation sequences.

/// A FIFO ring buffer with power-of-two capacity and head/len masking.
///
/// Order-preserving drop-in for the `VecDeque` usage in the simulators'
/// per-node queues: elements come out in insertion order, `remove(i)`
/// closes the gap by shifting later elements down (exactly `VecDeque`'s
/// observable behaviour), and iteration runs front to back. Capacity grows
/// by doubling only when full — steady-state traffic never reallocates.
///
/// # Examples
///
/// ```
/// use ringsim_core::RingBuf;
///
/// let mut q: RingBuf<u32> = RingBuf::new();
/// q.push_back(1);
/// q.push_back(2);
/// q.push_front(0);
/// assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
/// assert_eq!(q.remove(1), Some(1));
/// assert_eq!(q.pop_front(), Some(0));
/// assert_eq!(q.pop_front(), Some(2));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RingBuf<T> {
    /// Backing storage; `buf.len()` is always a power of two (or zero
    /// before first use). `None` marks unoccupied physical slots.
    buf: Vec<Option<T>>,
    /// Physical index of the logical front element.
    head: usize,
    /// Number of live elements.
    len: usize,
}

impl<T> Default for RingBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RingBuf<T> {
    /// An empty buffer (no allocation until the first push).
    #[must_use]
    pub fn new() -> Self {
        Self { buf: Vec::new(), head: 0, len: 0 }
    }

    /// An empty buffer pre-sized for at least `cap` elements (rounded up
    /// to a power of two), so steady-state use never reallocates.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut rb = Self::new();
        if cap > 0 {
            rb.realloc(cap.next_power_of_two());
        }
        rb
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no elements are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.buf.len().wrapping_sub(1)
    }

    fn physical(&self, logical: usize) -> usize {
        (self.head + logical) & self.mask()
    }

    /// Re-homes the contents into a fresh power-of-two allocation with the
    /// front at physical index 0.
    fn realloc(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two() && new_cap >= self.len);
        let mut next: Vec<Option<T>> = Vec::with_capacity(new_cap);
        for i in 0..self.len {
            let idx = self.physical(i);
            next.push(self.buf[idx].take());
        }
        next.resize_with(new_cap, || None);
        self.buf = next;
        self.head = 0;
    }

    fn grow_if_full(&mut self) {
        if self.len == self.buf.len() {
            self.realloc((self.buf.len() * 2).max(4));
        }
    }

    /// Appends to the back.
    pub fn push_back(&mut self, value: T) {
        self.grow_if_full();
        let idx = self.physical(self.len);
        debug_assert!(self.buf[idx].is_none());
        self.buf[idx] = Some(value);
        self.len += 1;
    }

    /// Prepends to the front (the next `pop_front` returns it).
    pub fn push_front(&mut self, value: T) {
        self.grow_if_full();
        self.head = self.head.wrapping_sub(1) & self.mask();
        debug_assert!(self.buf[self.head].is_none());
        self.buf[self.head] = Some(value);
        self.len += 1;
    }

    /// Removes and returns the front element.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let value = self.buf[self.head].take();
        debug_assert!(value.is_some());
        self.head = self.physical(1);
        self.len -= 1;
        value
    }

    /// The front element, if any.
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.buf[self.head].as_ref()
        }
    }

    /// The element at logical position `i` (0 = front).
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            None
        } else {
            self.buf[self.physical(i)].as_ref()
        }
    }

    /// Removes and returns the element at logical position `i`, shifting
    /// every later element one position toward the front (`VecDeque`
    /// semantics). `None` when out of range.
    pub fn remove(&mut self, i: usize) -> Option<T> {
        if i >= self.len {
            return None;
        }
        let at = self.physical(i);
        let removed = self.buf[at].take();
        for j in i..self.len - 1 {
            let from = self.physical(j + 1);
            let to = self.physical(j);
            self.buf[to] = self.buf[from].take();
        }
        self.len -= 1;
        removed
    }

    /// Drops all elements (capacity is kept).
    pub fn clear(&mut self) {
        for i in 0..self.len {
            let idx = self.physical(i);
            self.buf[idx] = None;
        }
        self.head = 0;
        self.len = 0;
    }

    /// Front-to-back iterator.
    pub fn iter(&self) -> RingBufIter<'_, T> {
        RingBufIter { rb: self, pos: 0 }
    }
}

impl<'a, T> IntoIterator for &'a RingBuf<T> {
    type Item = &'a T;
    type IntoIter = RingBufIter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Front-to-back borrowing iterator over a [`RingBuf`].
#[derive(Debug)]
pub struct RingBufIter<'a, T> {
    rb: &'a RingBuf<T>,
    pos: usize,
}

impl<'a, T> Iterator for RingBufIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let item = self.rb.get(self.pos)?;
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.rb.len() - self.pos.min(self.rb.len());
        (rest, Some(rest))
    }
}

impl<T> FromIterator<T> for RingBuf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut rb = RingBuf::new();
        for v in iter {
            rb.push_back(v);
        }
        rb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ringbuf_wraps_and_grows() {
        let mut rb: RingBuf<u32> = RingBuf::with_capacity(2);
        for round in 0..10 {
            rb.push_back(round);
            rb.push_back(round + 100);
            assert_eq!(rb.pop_front(), Some(round));
            assert_eq!(rb.pop_front(), Some(round + 100));
        }
        for i in 0..9 {
            rb.push_back(i);
        }
        assert_eq!(rb.len(), 9);
        assert_eq!(rb.iter().copied().collect::<Vec<_>>(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn ringbuf_push_front_and_remove_match_vecdeque() {
        use std::collections::VecDeque;
        let mut rb: RingBuf<u32> = RingBuf::new();
        let mut vd: VecDeque<u32> = VecDeque::new();
        for i in 0..8 {
            rb.push_back(i);
            vd.push_back(i);
        }
        rb.push_front(99);
        vd.push_front(99);
        assert_eq!(rb.remove(4), vd.remove(4));
        assert_eq!(rb.remove(0), vd.remove(0));
        assert_eq!(rb.remove(100), None);
        assert_eq!(rb.iter().copied().collect::<Vec<_>>(), Vec::from(vd.clone()));
        rb.clear();
        assert!(rb.is_empty() && rb.front().is_none());
    }
}
