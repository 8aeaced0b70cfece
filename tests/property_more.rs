//! Further property-based tests: the coherent cache against a plain
//! reference model, message travel times on the ring, and workload
//! statistics.

use std::collections::HashMap;

use proptest::prelude::*;

use ringsim::cache::{AccessClass, Cache, CacheConfig, LineState};
use ringsim::ring::{RingConfig, SlotRing};
use ringsim::trace::{characterize, RecordedTrace, Workload, WorkloadSpec};
use ringsim::types::rng::Xoshiro256;
use ringsim::types::{AccessKind, BlockAddr, NodeId};

proptest! {
    /// The direct-mapped cache agrees with a naive map-based model of
    /// "which block owns each line". About one block in five carries high
    /// bits (`hi << 40`, a tag of 2^35 or more), so the cache switches to
    /// 64-bit line words partway through most sequences.
    #[test]
    fn cache_agrees_with_reference_map(
        ops in prop::collection::vec((0u64..1024, any::<bool>(), 0u64..16), 1..500)
    ) {
        let cfg = CacheConfig { size_bytes: 512, block_bytes: 16 }; // 32 lines
        let lines = 32u64;
        let mut cache = Cache::new(cfg).unwrap();
        let mut model: HashMap<u64, (u64, bool)> = HashMap::new(); // line -> (block, dirty)
        for (block, write, hi) in ops {
            let block = block | hi.saturating_sub(12) << 40;
            let b = BlockAddr::new(block);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let line = block % lines;
            let expected = match model.get(&line) {
                Some(&(owner, dirty)) if owner == block => {
                    if write && !dirty { AccessClass::Upgrade } else { AccessClass::Hit }
                }
                _ => AccessClass::Miss,
            };
            let got = cache.classify(b, kind);
            prop_assert_eq!(got, expected, "block {} write {}", block, write);
            match got {
                AccessClass::Miss => {
                    let victim = cache.fill(b, if write { LineState::We } else { LineState::Rs });
                    let expected = model.insert(line, (block, write)).map(|(owner, dirty)| {
                        (BlockAddr::new(owner), if dirty { LineState::We } else { LineState::Rs })
                    });
                    prop_assert_eq!(victim, expected, "victim of block {}", block);
                }
                AccessClass::Upgrade => {
                    cache.promote(b);
                    model.insert(line, (block, true));
                }
                AccessClass::Hit => {}
            }
        }
    }

    /// A message inserted at node A arrives at node B after exactly the
    /// stage distance, regardless of ring size or positions.
    #[test]
    fn message_travel_time_is_stage_distance(nodes in 2usize..=32, a in 0usize..32, b in 0usize..32) {
        let a = a % nodes;
        let b = b % nodes;
        let mut ring: SlotRing<u8> = SlotRing::new(RingConfig::standard_500mhz(nodes)).unwrap();
        let src = NodeId::new(a);
        let dst = NodeId::new(b);
        // Find an empty slot at src.
        let mut inserted_at = None;
        for _ in 0..=ring.layout().stages() {
            if let Some(slot) = ring.arrival(src) {
                if ring.peek(slot).is_none() {
                    ring.try_insert(slot, src, 9).unwrap();
                    inserted_at = Some((slot, ring.cycle()));
                    break;
                }
            }
            ring.advance();
        }
        let (slot, t0) = inserted_at.expect("an empty slot within one revolution");
        let dist = ring.layout().stage_distance(src, dst) as u64;
        while ring.cycle() < t0 + dist {
            ring.advance();
        }
        prop_assert_eq!(ring.arrival(dst), Some(slot));
        prop_assert_eq!(ring.peek(slot), Some(&9));
    }

    /// Recorded traces round-trip through bytes for arbitrary small
    /// workloads.
    #[test]
    fn trace_bytes_roundtrip(seed in 0u64..200, procs in 2usize..=6, refs in 10u64..200) {
        let spec = WorkloadSpec::demo(procs).with_seed(seed);
        let trace = RecordedTrace::capture_refs(&spec, refs).unwrap();
        let back = RecordedTrace::from_bytes(&trace.to_bytes()).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// Workload statistics respect their knobs: zero shared fraction means
    /// zero shared references; zero write fractions mean zero writes.
    #[test]
    fn workload_respects_extreme_knobs(seed in 0u64..100) {
        let spec = WorkloadSpec {
            shared_frac: 0.0,
            private_write_frac: 0.0,
            ..WorkloadSpec::demo(4).with_seed(seed)
        };
        let mut w = Workload::new(spec).unwrap();
        for r in w.round_robin(500) {
            prop_assert!(!r.region.is_shared());
            prop_assert!(!r.kind.is_write());
        }
    }

    /// Characterisation never reports more misses than references, and all
    /// Figure 5 classes partition remote misses.
    #[test]
    fn characterisation_is_internally_consistent(seed in 0u64..50) {
        let spec = WorkloadSpec::demo(4).with_refs(2_000).with_seed(seed);
        let ch = characterize(&spec).unwrap();
        let e = ch.events;
        prop_assert!(e.misses() <= e.data_refs());
        prop_assert!(e.shared_misses() <= e.shared_refs());
        prop_assert!(e.private_misses <= e.private_refs());
        let fig5 = e.fig5_one_cycle_clean() + e.fig5_one_cycle_dirty() + e.fig5_two_cycle();
        prop_assert_eq!(fig5, e.remote_misses());
        prop_assert!(e.remote_misses() <= e.shared_misses());
    }

    /// The deterministic PRNG's weighted pick respects zero weights for any
    /// weight vector.
    #[test]
    fn weighted_pick_never_selects_zero(seed in 0u64..500, w0 in 0u32..5, w1 in 0u32..5, w2 in 0u32..5) {
        let weights = [f64::from(w0), 0.0, f64::from(w1), f64::from(w2)];
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for _ in 0..50 {
            if let Some(i) = rng.pick_weighted(&weights) {
                prop_assert!(weights[i] > 0.0);
            } else {
                prop_assert!(weights.iter().all(|&w| w == 0.0));
            }
        }
    }
}
