//! Order statistics, process accounting read from `/proc`, and host facts.

use std::fs;

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `xs` that still has at least ten samples
/// beyond it: `(percentile, value)`. `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = n - 11;
    Some((100.0 * (i + 1) as f64 / n as f64, v[i]))
}

/// User plus system CPU seconds consumed so far by process `pid` (`None`
/// for this process), all threads included. `/proc` reports clock ticks of
/// 1/100 s on Linux.
pub fn cpu_secs(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(|| "/proc/self/stat".to_owned(), |p| format!("/proc/{p}/stat"));
    let Ok(text) = fs::read_to_string(path) else { return 0.0 };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick(14) + tick(15)) as f64 / 100.0
}

/// Peak resident set size of process `pid` (`None` for this process) in
/// MiB, from `VmHWM`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(|| "/proc/self/status".to_owned(), |p| format!("/proc/{p}/status"));
    let text = fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the benchmark gives parallel layers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// 64-bit FNV-1a, the digest used for artifacts and source fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Host facts recorded beside every result, as `(key, value)` pairs.
pub fn host_facts() -> Vec<(&'static str, String)> {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("commit", format!("source-{:016x}", source_digest())),
    ]
}

/// Digest of the workspace sources the benchmark measures (the crates and
/// the root package). It identifies the commit: a checkout to benchmark
/// need not be a git repository.
fn source_digest() -> u64 {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for top in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(top));
    }
    files.sort();
    let mut acc = Vec::new();
    for f in files {
        if let Ok(bytes) = fs::read(&f) {
            acc.extend_from_slice(&fnv1a(&bytes).to_le_bytes());
        }
    }
    fnv1a(&acc)
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(tail(&[1.0; 10]).is_none());
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples (11..=20) lie beyond the 50th percentile value 10.
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
    }

    #[test]
    fn proc_accounting_reads_this_process() {
        assert!(peak_rss_mb(None) > 0.0);
        assert!(cpu_secs(None) >= 0.0);
    }
}
