//! Differential property tests for the hot-path container in
//! `ringsim_core::collections`.
//!
//! [`RingBuf`] replaces `VecDeque` in the simulators' inner loops; the
//! optimization is only sound if it is observationally identical to the
//! structure it replaced. Each test drives the container and a `std`
//! model through the same random
//! operation sequence and compares every result and the full observable
//! state after every step, so any divergence is caught at the first
//! operation that introduces it.
//!
//! Operations are drawn as `(kind, payload)` integer pairs and decoded
//! here — the vendored `proptest` stand-in supports range/tuple/vec
//! strategies but not `prop_oneof`, so the enum-shaped strategy is spelled
//! as a decoder over a small integer domain instead.

use std::collections::VecDeque;

use proptest::prelude::*;
use ringsim_core::RingBuf;

/// One operation against a FIFO queue. Payload-carrying variants store a
/// raw value that is reduced modulo the live length at apply time, so
/// every generated sequence stays meaningful regardless of how long the
/// queue is when the operation fires (and out-of-range probes are still
/// exercised via the `+ 1` slack in `Remove`).
#[derive(Debug, Clone)]
enum DequeOp {
    PushBack(u32),
    PushFront(u32),
    PopFront,
    /// Remove at `raw % (len + 1)` — occasionally one past the end, which
    /// must return `None` on both sides.
    Remove(usize),
    Clear,
}

/// Decodes a raw `(kind, payload)` draw; the `kind` domain is `0..10`, so
/// the weights are pushes 3/10 + 2/10, pops 2/10, removes 2/10, clear 1/10
/// — queues both grow and drain over a 200-op sequence.
fn decode_deque_op((kind, payload): (usize, u64)) -> DequeOp {
    match kind {
        0..=2 => DequeOp::PushBack(payload as u32),
        3..=4 => DequeOp::PushFront(payload as u32),
        5..=6 => DequeOp::PopFront,
        7..=8 => DequeOp::Remove(payload as usize),
        _ => DequeOp::Clear,
    }
}

/// Applies one operation to both queues and asserts the results agree.
fn apply_deque_op(op: &DequeOp, rb: &mut RingBuf<u32>, vd: &mut VecDeque<u32>) {
    match *op {
        DequeOp::PushBack(v) => {
            rb.push_back(v);
            vd.push_back(v);
        }
        DequeOp::PushFront(v) => {
            rb.push_front(v);
            vd.push_front(v);
        }
        DequeOp::PopFront => assert_eq!(rb.pop_front(), vd.pop_front()),
        DequeOp::Remove(raw) => {
            let i = raw % (vd.len() + 1);
            assert_eq!(rb.remove(i), vd.remove(i), "remove({i}) diverged");
        }
        DequeOp::Clear => {
            rb.clear();
            vd.clear();
        }
    }
}

/// Asserts every observation the simulators make of a queue matches the
/// model: length, emptiness, front, random access (including one past the
/// end), and front-to-back iteration order.
fn assert_deque_state(rb: &RingBuf<u32>, vd: &VecDeque<u32>) {
    assert_eq!(rb.len(), vd.len());
    assert_eq!(rb.is_empty(), vd.is_empty());
    assert_eq!(rb.front(), vd.front());
    for i in 0..=vd.len() {
        assert_eq!(rb.get(i), vd.get(i), "get({i}) diverged");
    }
    assert_eq!(rb.iter().copied().collect::<Vec<_>>(), vd.iter().copied().collect::<Vec<_>>());
}

proptest! {
    /// `RingBuf` is a drop-in for `VecDeque` under arbitrary
    /// interleavings of every operation the simulators use.
    #[test]
    fn ringbuf_matches_vecdeque(
        raw_ops in prop::collection::vec((0usize..10, any::<u64>()), 0..200),
    ) {
        let mut rb: RingBuf<u32> = RingBuf::new();
        let mut vd: VecDeque<u32> = VecDeque::new();
        for raw in raw_ops {
            let op = decode_deque_op(raw);
            apply_deque_op(&op, &mut rb, &mut vd);
            assert_deque_state(&rb, &vd);
        }
    }

    /// Pre-sizing only changes when allocation happens, never what is
    /// observed — the same sequences through a pre-warmed buffer match the
    /// model too (this exercises wrap-around at small capacities).
    #[test]
    fn ringbuf_with_capacity_matches_vecdeque(
        cap in 0usize..17,
        raw_ops in prop::collection::vec((0usize..10, any::<u64>()), 0..120),
    ) {
        let mut rb: RingBuf<u32> = RingBuf::with_capacity(cap);
        let mut vd: VecDeque<u32> = VecDeque::new();
        for raw in raw_ops {
            let op = decode_deque_op(raw);
            apply_deque_op(&op, &mut rb, &mut vd);
            assert_deque_state(&rb, &vd);
        }
    }
}
