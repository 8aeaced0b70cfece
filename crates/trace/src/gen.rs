use std::sync::Arc;

use ringsim_types::rng::Xoshiro256;
use ringsim_types::{AccessKind, Addr, ConfigError, MemRef, NodeId, Region};

use crate::space::AddressSpace;
use crate::spec::WorkloadSpec;

/// The synthetic reference engine for one processor (see [`NodeStream`]).
#[derive(Debug, Clone)]
struct SynthStream {
    node: NodeId,
    spec: Arc<WorkloadSpec>,
    space: AddressSpace,
    rng: Xoshiro256,
    /// Current migratory episode: block index and references remaining.
    mig_block: u64,
    mig_remaining: u64,
    /// Current producer-consumer burst: block index, references remaining,
    /// and whether this node is producing (writing) or consuming (reading).
    pc_block: u64,
    pc_remaining: u64,
    pc_writing: bool,
    /// Monotone counter for the never-revisited streaming pool.
    stream_counter: u64,
    /// Number of producer-consumer blocks owned by this node.
    own_pc_blocks: u64,
    /// Normalised sharing-pool weights, fixed at construction (the spec is
    /// immutable, so recomputing them per shared reference is pure waste).
    pool_weights: [f64; 4],
}

impl SynthStream {
    fn new(node: NodeId, spec: Arc<WorkloadSpec>, space: AddressSpace, rng: Xoshiro256) -> Self {
        let procs = spec.procs as u64;
        let pc = spec.prodcons_blocks;
        // Blocks with index ≡ node (mod procs) belong to this producer.
        let own_pc_blocks = pc / procs + u64::from(pc % procs > node.index() as u64);
        let pool_weights = spec.pool_weights();
        Self {
            node,
            spec,
            space,
            rng,
            mig_block: 0,
            mig_remaining: 0,
            pc_block: 0,
            pc_remaining: 0,
            pc_writing: false,
            stream_counter: 0,
            own_pc_blocks,
            pool_weights,
        }
    }

    /// Generates the next data reference.
    fn next_ref(&mut self) -> MemRef {
        if self.rng.chance(self.spec.shared_frac) {
            self.next_shared()
        } else {
            self.next_private()
        }
    }

    fn next_private(&mut self) -> MemRef {
        let spec = &self.spec;
        let addr = if self.rng.chance(spec.private_cold_frac) {
            let idx = self.rng.next_below(spec.private_cold_blocks);
            self.space.private_cold_addr(self.node, idx)
        } else {
            let idx = self.rng.next_below(spec.private_hot_blocks);
            self.space.private_addr(self.node, idx)
        };
        let kind = if self.rng.chance(spec.private_write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.make(addr, kind, Region::Private)
    }

    fn next_shared(&mut self) -> MemRef {
        let weights = self.pool_weights;
        match self.rng.pick_weighted(&weights).expect("validated spec has a usable pool") {
            0 => {
                let idx = self.rng.next_below(self.spec.read_only_blocks);
                self.make(self.space.read_only_addr(idx), AccessKind::Read, Region::Shared)
            }
            1 => {
                // Streaming sweep: a fresh block every time — a guaranteed
                // cold miss, never revisited.
                self.stream_counter += 1;
                let addr = self.space.stream_addr(self.node, self.stream_counter);
                self.make(addr, AccessKind::Read, Region::Shared)
            }
            2 => self.next_migratory(),
            _ => self.next_prodcons(),
        }
    }

    fn next_migratory(&mut self) -> MemRef {
        let spec = &self.spec;
        let starting = self.mig_remaining == 0;
        if starting {
            self.mig_block = self.rng.next_below(spec.migratory_blocks);
            self.mig_remaining = spec.migratory_run_len;
        }
        self.mig_remaining -= 1;
        // An episode is a read-modify-write run: it opens with a read (the
        // migratory fetch) and mixes writes afterwards.
        let kind = if !starting && self.rng.chance(spec.migratory_write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.make(self.space.migratory_addr(self.mig_block), kind, Region::Shared)
    }

    fn next_prodcons(&mut self) -> MemRef {
        let spec = &self.spec;
        let procs = spec.procs as u64;
        if self.pc_remaining == 0 {
            // Start a new burst: produce on an own block or consume a
            // random one, then stay on it for `prodcons_burst` references
            // (the temporal locality of a grid point).
            self.pc_remaining = spec.prodcons_burst;
            if self.own_pc_blocks > 0 && self.rng.chance(spec.prodcons_producer_frac) {
                let k = self.rng.next_below(self.own_pc_blocks);
                self.pc_block = self.node.index() as u64 + k * procs;
                self.pc_writing = true;
            } else {
                self.pc_block = self.rng.next_below(spec.prodcons_blocks);
                self.pc_writing = false;
            }
        }
        self.pc_remaining -= 1;
        let kind = if self.pc_writing { AccessKind::Write } else { AccessKind::Read };
        self.make(self.space.prodcons_addr(self.pc_block), kind, Region::Shared)
    }

    fn make(&self, addr: Addr, kind: AccessKind, region: Region) -> MemRef {
        MemRef { node: self.node, addr, kind, region }
    }
}

/// Deterministic stream of data references for one processor: either the
/// synthetic generator or the replay of a recorded trace.
///
/// Each synthetic node draws from its own PRNG stream, so the sequence a
/// node produces is independent of how the simulator interleaves nodes —
/// the synthetic analogue of replaying a fixed per-processor trace. Replay
/// streams come from [`crate::RecordedTrace`] and repeat their recording
/// cyclically if a simulator asks for more references than were captured.
#[derive(Debug, Clone)]
pub struct NodeStream {
    inner: StreamInner,
    node: NodeId,
    instr_per_data: f64,
    emitted: u64,
}

#[derive(Debug, Clone)]
enum StreamInner {
    Synth(SynthStream),
    Replay { refs: std::sync::Arc<[MemRef]>, cursor: usize },
}

impl NodeStream {
    fn synthetic(engine: SynthStream) -> Self {
        Self {
            node: engine.node,
            instr_per_data: engine.spec.instr_per_data,
            inner: StreamInner::Synth(engine),
            emitted: 0,
        }
    }

    pub(crate) fn replay(
        node: NodeId,
        instr_per_data: f64,
        refs: std::sync::Arc<[MemRef]>,
    ) -> Self {
        assert!(!refs.is_empty(), "replay stream needs at least one reference");
        Self { node, instr_per_data, inner: StreamInner::Replay { refs, cursor: 0 }, emitted: 0 }
    }

    /// The issuing processor.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// References generated so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Instruction references charged per data reference.
    #[must_use]
    pub fn instr_per_data(&self) -> f64 {
        self.instr_per_data
    }

    /// Generates (or replays) the next data reference.
    #[inline]
    pub fn next_ref(&mut self) -> MemRef {
        self.emitted += 1;
        match &mut self.inner {
            StreamInner::Synth(engine) => engine.next_ref(),
            StreamInner::Replay { refs, cursor } => {
                let r = refs[*cursor];
                *cursor = (*cursor + 1) % refs.len();
                r
            }
        }
    }
}

/// A complete synthetic workload: one [`NodeStream`] per processor plus the
/// shared [`AddressSpace`].
///
/// # Examples
///
/// ```
/// use ringsim_trace::{Workload, WorkloadSpec};
///
/// let workload = Workload::new(WorkloadSpec::demo(4)).unwrap();
/// let mut streams = workload.into_streams();
/// let r = streams[0].next_ref();
/// assert_eq!(r.node.index(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    spec: Arc<WorkloadSpec>,
    space: AddressSpace,
    streams: Vec<NodeStream>,
}

impl Workload {
    /// Builds the workload, validating the spec.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the spec fails validation.
    pub fn new(spec: WorkloadSpec) -> Result<Self, ConfigError> {
        spec.validate()?;
        let spec = Arc::new(spec);
        let space = AddressSpace::new(spec.procs, spec.seed ^ 0x5eed_9a9e);
        let mut root = Xoshiro256::seed_from_u64(spec.seed);
        let streams = NodeId::all(spec.procs)
            .map(|node| {
                let rng = root.fork(node.index() as u64);
                NodeStream::synthetic(SynthStream::new(node, Arc::clone(&spec), space, rng))
            })
            .collect();
        Ok(Self { spec, space, streams })
    }

    /// Assembles a workload from pre-built parts (trace replay).
    pub(crate) fn from_parts(
        spec: WorkloadSpec,
        space: AddressSpace,
        streams: Vec<NodeStream>,
    ) -> Self {
        Self { spec: Arc::new(spec), space, streams }
    }

    /// The validated spec.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The address map (home placement, regions).
    #[must_use]
    pub fn space(&self) -> AddressSpace {
        self.space
    }

    /// Number of processors.
    #[must_use]
    pub fn procs(&self) -> usize {
        self.spec.procs
    }

    /// Mutable access to the per-node streams.
    pub fn streams_mut(&mut self) -> &mut [NodeStream] {
        &mut self.streams
    }

    /// Consumes the workload into its per-node streams.
    #[must_use]
    pub fn into_streams(self) -> Vec<NodeStream> {
        self.streams
    }

    /// Round-robin merge of all node streams, `per_node` references each —
    /// the interleaving used for untimed trace characterisation.
    pub fn round_robin(&mut self, per_node: u64) -> impl Iterator<Item = MemRef> + '_ {
        let remaining = per_node * self.streams.len() as u64;
        RoundRobin { streams: &mut self.streams, idx: 0, remaining }
    }
}

/// Iterator returned by [`Workload::round_robin`].
#[derive(Debug)]
struct RoundRobin<'a> {
    streams: &'a mut [NodeStream],
    idx: usize,
    remaining: u64,
}

impl Iterator for RoundRobin<'_> {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let r = self.streams[self.idx].next_ref();
        self.idx = (self.idx + 1) % self.streams.len();
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_types::Region;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Workload::new(WorkloadSpec::demo(4)).unwrap();
        let mut b = Workload::new(WorkloadSpec::demo(4)).unwrap();
        for n in 0..4 {
            for _ in 0..1000 {
                assert_eq!(a.streams_mut()[n].next_ref(), b.streams_mut()[n].next_ref());
            }
        }
    }

    #[test]
    fn node_stream_independent_of_interleaving() {
        let mut a = Workload::new(WorkloadSpec::demo(4)).unwrap();
        let mut b = Workload::new(WorkloadSpec::demo(4)).unwrap();
        // Drain node 3 of `b` heavily first; node 0's stream must not change.
        for _ in 0..500 {
            b.streams_mut()[3].next_ref();
        }
        for _ in 0..200 {
            assert_eq!(a.streams_mut()[0].next_ref(), b.streams_mut()[0].next_ref());
        }
    }

    #[test]
    fn shared_fraction_is_respected() {
        let spec = WorkloadSpec { shared_frac: 0.4, ..WorkloadSpec::demo(4) };
        let mut w = Workload::new(spec).unwrap();
        let n = 40_000;
        let shared = w.round_robin(n / 4).filter(|r| r.region == Region::Shared).count();
        let frac = shared as f64 / n as f64;
        assert!((0.37..0.43).contains(&frac), "shared frac = {frac}");
    }

    #[test]
    fn private_refs_stay_in_owner_region() {
        let mut w = Workload::new(WorkloadSpec::demo(4)).unwrap();
        let space = w.space();
        for r in w.round_robin(500) {
            if r.region == Region::Private {
                assert_eq!(space.home_of(r.addr), r.node);
            }
        }
    }

    #[test]
    fn migratory_episodes_have_configured_length() {
        let spec = WorkloadSpec {
            shared_frac: 1.0,
            shared_read_only_frac: 0.0,
            shared_stream_frac: 0.0,
            shared_migratory_frac: 1.0,
            shared_prodcons_frac: 0.0,
            migratory_run_len: 5,
            ..WorkloadSpec::demo(4)
        };
        let mut w = Workload::new(spec).unwrap();
        let stream = &mut w.streams_mut()[0];
        // Consecutive refs come in runs of exactly 5 to the same block.
        let mut last = None;
        let mut run = 0;
        let mut runs = Vec::new();
        for _ in 0..200 {
            let r = stream.next_ref();
            if Some(r.addr.block(16)) == last.map(|a: ringsim_types::Addr| a.block(16)) {
                run += 1;
            } else {
                if run > 0 {
                    runs.push(run);
                }
                run = 1;
            }
            last = Some(r.addr);
        }
        // All complete runs are multiples of 5 (same block may repeat across
        // episodes).
        assert!(runs.iter().all(|&r| r % 5 == 0), "runs = {runs:?}");
    }

    #[test]
    fn prodcons_writes_only_own_blocks() {
        let spec = WorkloadSpec {
            shared_frac: 1.0,
            shared_read_only_frac: 0.0,
            shared_stream_frac: 0.0,
            shared_migratory_frac: 0.0,
            shared_prodcons_frac: 1.0,
            prodcons_producer_frac: 0.5,
            ..WorkloadSpec::demo(4)
        };
        let mut w = Workload::new(spec).unwrap();
        let space = w.space();
        for node in 0..4 {
            let stream = &mut w.streams_mut()[node];
            for _ in 0..500 {
                let r = stream.next_ref();
                if r.kind.is_write() {
                    // Recover the pool index from the address.
                    let block = r.addr.block(16).raw();
                    let idx = block & 0xffff_ffff;
                    let idx = idx - 5120; // PC_LINE_BASE
                    assert_eq!(space.producer_of(idx), r.node, "write to foreign block");
                }
            }
        }
    }

    #[test]
    fn round_robin_emits_exactly_requested() {
        let mut w = Workload::new(WorkloadSpec::demo(3)).unwrap();
        assert_eq!(w.round_robin(10).count(), 30);
    }

    #[test]
    fn rejects_invalid_spec() {
        let bad = WorkloadSpec { procs: 0, ..WorkloadSpec::demo(4) };
        assert!(Workload::new(bad).is_err());
    }
}
