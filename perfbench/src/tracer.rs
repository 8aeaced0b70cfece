//! Host-time spans around the benchmark's calls into each layer, kept in a
//! `ringsim_obs` trace buffer and exported in the Chrome trace format.
//!
//! Each span's category is the layer it times (`trace`, `core`, `sweep`,
//! ...). A layer's self time is the length of its spans minus the parts
//! their child spans cover. When tracing is off, [`Tracer::span`] only
//! calls its closure.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use ringsim_obs::trace::{span, TraceBuffer, TraceEvent};
use ringsim_types::Time;

/// Spans held in memory until the run ends.
pub struct Tracer {
    on: bool,
    origin: Instant,
    buf: Mutex<TraceBuffer>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            buf: Mutex::new(TraceBuffer::new(ringsim_obs::DEFAULT_TRACE_CAPACITY)),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` of layer `layer` on track `tid`,
    /// with `arg` as its `detail` argument when non-empty.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        tid: u32,
        arg: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let mut ev = span(name, layer, tid, start, self.now());
        if !arg.is_empty() {
            ev.args.push(("detail", arg.to_owned()));
        }
        self.buf.lock().expect("trace buffer lock").push(ev);
        out
    }

    fn now(&self) -> Time {
        let ns = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX / 1000);
        Time::from_ps(ns * 1000)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("trace buffer lock").len()
    }

    /// The spans as a Chrome `trace_event` document.
    pub fn chrome_json(&self) -> String {
        self.buf.lock().expect("trace buffer lock").to_chrome_json()
    }

    /// Self time in seconds per layer.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let buf = self.buf.lock().expect("trace buffer lock");
        self_times(&buf.events().cloned().collect::<Vec<_>>())
    }
}

/// Self time per category: each span's duration minus the durations of the
/// spans directly nested in it on the same track.
fn self_times(events: &[TraceEvent]) -> BTreeMap<&'static str, f64> {
    let mut by_tid: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events.iter().filter(|e| e.ph == 'X') {
        by_tid.entry(ev.tid).or_default().push(ev);
    }
    let mut out = BTreeMap::new();
    for evs in by_tid.values_mut() {
        // Parents sort before the children they enclose.
        evs.sort_by_key(|e| (e.ts_ps, std::cmp::Reverse(e.dur_ps)));
        let mut own: Vec<u64> = evs.iter().map(|e| e.dur_ps).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, ev) in evs.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if evs[top].ts_ps + evs[top].dur_ps <= ev.ts_ps {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                own[parent] = own[parent].saturating_sub(ev.dur_ps);
            }
            stack.push(i);
        }
        for (ev, ps) in evs.iter().zip(own) {
            *out.entry(ev.cat).or_insert(0.0) += ps as f64 / 1e12;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = |ns| Time::from_ns(ns);
        let evs = vec![
            span("round", "bench", 0, t(0), t(100)),
            span("build", "core", 0, t(10), t(30)),
            span("run", "core", 0, t(30), t(90)),
            span("other", "sweep", 1, t(0), t(50)),
        ];
        let s = self_times(&evs);
        assert!((s["bench"] - 20e-9).abs() < 1e-15);
        assert!((s["core"] - 80e-9).abs() < 1e-15);
        assert!((s["sweep"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", "core", 0, "", || 7), 7);
        assert_eq!(tr.len(), 0);
    }
}
