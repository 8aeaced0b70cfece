//! `perfbench`: the ringsim repository benchmark.
//!
//! ```text
//! perfbench --workload <ring64|bus64|sweep> --seed <n> --seconds <s>
//!           --trace <0|1> --ringsim <path to the ringsim binary> [--bless]
//! ```
//!
//! `perfbench/run.sh` builds this package and the `ringsim` binary, then
//! runs this with the right `--ringsim`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics untraced or the per-layer metrics traced. A
//! human-readable report goes to standard error, and the full result with
//! the host facts and output digests to `.perfbench/` in the working
//! directory. See `README.md`.

mod calib;
mod layers;
mod metrics;
mod serve;
mod sim;
mod stats;
mod sweep;
mod tracer;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::tracer::Tracer;

/// The seed whose output digests `golden.txt` records.
pub const DEFAULT_SEED: u64 = 1;

/// Output digests of every workload at [`DEFAULT_SEED`], one `key digest`
/// pair a line.
const GOLDEN: &str = include_str!("../golden.txt");

/// Where results, traces and temporary out dirs go, under the working
/// directory.
const OUT_DIR: &str = ".perfbench";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `ringsim` binary (`serve` and `stats --trace`, traced runs).
    pub ringsim: PathBuf,
    /// Rewrite this workload's entries of `golden.txt`.
    pub bless: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut bless = false;
        while let Some(flag) = argv.next() {
            if flag == "--bless" {
                bless = true;
                continue;
            }
            let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected `{flag}`"))?;
            let value = argv.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            flags.insert(key.to_owned(), value);
        }
        let mut take = |key: &str| flags.remove(key).ok_or_else(|| format!("missing --{key}"));
        let workload = take("workload")?;
        if !metrics::WORKLOADS.iter().any(|w| w.0 == workload) {
            return Err(format!("unknown workload `{workload}`"));
        }
        let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".to_owned());
        }
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        };
        let ringsim = PathBuf::from(take("ringsim")?);
        if !ringsim.is_file() {
            return Err(format!("--ringsim {} is not a file", ringsim.display()));
        }
        if let Some(extra) = flags.keys().next() {
            return Err(format!("unknown flag --{extra}"));
        }
        if bless && seed != DEFAULT_SEED {
            return Err(format!("--bless records digests of seed {DEFAULT_SEED} only"));
        }
        Ok(Self { workload, seed, seconds, trace, ringsim, bless })
    }
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Why each failed operation or check failed.
    pub failures: Vec<String>,
    /// Declared metrics measured.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `(key, digest)` of every output the golden file pins.
    pub digests: Vec<(String, String)>,
    /// Remarks for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`metrics`].
    pub fn set(&mut self, name: &str, value: f64) {
        let m = metrics::find(name).unwrap_or_else(|| panic!("undeclared metric `{name}`"));
        self.metrics.insert(m.name, value);
    }

    /// Counts one output check, failing with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failures.push(why);
    }
}

/// Mixes `salt` into `seed` (SplitMix64 finaliser): per-use seeds derived
/// from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The prefix of a workload's keys in `golden.txt`.
fn golden_prefix(workload: &str) -> String {
    format!("{workload}/")
}

/// At [`DEFAULT_SEED`], checks every digest against `golden.txt` and that
/// no recorded output is missing.
fn check_golden(args: &Args, out: &mut Outcome) {
    if args.seed != DEFAULT_SEED {
        return;
    }
    let prefix = golden_prefix(&args.workload);
    let golden: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter(|(k, _)| k.starts_with(&prefix))
        .collect();
    let ours: BTreeMap<&str, &str> =
        out.digests.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let mut failures = Vec::new();
    for (key, digest) in &ours {
        match golden.get(key) {
            Some(want) if want == digest => {}
            Some(want) => failures.push(format!("{key}: digest {digest}, golden.txt has {want}")),
            None => failures.push(format!("{key}: not in golden.txt")),
        }
    }
    for key in golden.keys().filter(|k| !ours.contains_key(*k)) {
        failures.push(format!("{key}: in golden.txt but not produced"));
    }
    out.attempted += (ours.len() + golden.len()) as u64;
    out.failures.extend(failures);
}

/// Rewrites this workload's entries of `golden.txt` from `out`.
fn bless(args: &Args, out: &Outcome) -> std::io::Result<()> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.txt");
    let prefix = golden_prefix(&args.workload);
    let old = fs::read_to_string(&path)?;
    let mut lines: Vec<String> =
        old.lines().filter(|l| !l.starts_with(&prefix)).map(str::to_owned).collect();
    lines.extend(out.digests.iter().map(|(k, v)| format!("{k} {v}")));
    let (mut comments, mut entries): (Vec<String>, Vec<String>) =
        lines.into_iter().partition(|l| l.starts_with('#'));
    entries.sort();
    comments.extend(entries);
    fs::write(&path, comments.join("\n") + "\n")
}

/// Exports the spans and checks `ringsim stats --trace` accepts them.
fn export_trace(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let path = Path::new(OUT_DIR).join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    out.set("obs.spans", tracer.len() as f64);
    if let Err(e) = fs::write(&path, tracer.chrome_json()) {
        out.fail(format!("writing {}: {e}", path.display()));
        return;
    }
    let stats = Command::new(&args.ringsim)
        .arg("stats")
        .arg("--trace")
        .arg(&path)
        .stdin(Stdio::null())
        .output();
    match stats {
        Ok(o) if o.status.success() => {
            out.notes.push(String::from_utf8_lossy(&o.stdout).trim().to_owned());
        }
        Ok(o) => out.fail(format!(
            "ringsim stats --trace rejected {}: {}",
            path.display(),
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Err(e) => out.fail(format!("running ringsim stats: {e}")),
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut q = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `declared`.
fn metrics_json(declared: &[metrics::Metric], values: &BTreeMap<&str, f64>) -> String {
    let items: Vec<String> = declared
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                values[m.name],
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}-{}", args.workload, std::process::id()));
    if let Err(e) = fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "ring64" | "bus64" => sim::run(&args, &tracer),
        _ => sweep::run(&args, &tmp, &tracer),
    };
    let _ = fs::remove_dir_all(&tmp);
    if args.bless {
        if let Err(e) = bless(&args, &out) {
            out.fail(format!("writing golden.txt: {e}"));
        }
    } else {
        check_golden(&args, &mut out);
    }
    if args.trace {
        export_trace(&args, &tracer, &mut out);
    }

    let declared = if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for m in declared {
        let value = match out.metrics.get(m.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                out.failures.push(format!("{}: not a number ({v})", m.name));
                0.0
            }
            // A layer the workload does not call reads 0.
            None if args.trace => 0.0,
            None => {
                out.failures.push(format!("{}: not measured", m.name));
                0.0
            }
        };
        values.insert(m.name, value);
    }
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(failed).max(1);
    let correct = failed == 0;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let host = stats::host_facts();
    for (k, v) in &host {
        let _ = writeln!(report, "  host {k}: {v}");
    }
    for m in declared {
        let _ = write!(
            report,
            "  {:<34} {:>16.6} {:<6} {} is better",
            m.name,
            values[m.name],
            m.unit,
            m.better.as_str()
        );
        if !m.moves.is_empty() {
            let _ = write!(report, "; moves {} on {}", m.moves, m.on.join(", "));
        } else if !m.on.is_empty() {
            let _ = write!(report, "; measured on {}, gates nothing", m.on.join(", "));
        }
        report.push('\n');
    }
    let _ = writeln!(
        report,
        "  failed_frac {failed}/{attempted} = {}",
        failed as f64 / attempted as f64
    );
    for n in &out.notes {
        let _ = writeln!(report, "  note: {n}");
    }
    for f in &out.failures {
        let _ = writeln!(report, "  FAILED: {f}");
    }
    eprint!("{report}");

    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(declared, &values)
    );
    let host_json: Vec<String> =
        host.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
    let list = |xs: &[String]| xs.iter().map(|x| quote(x)).collect::<Vec<_>>().join(", ");
    let digests: Vec<String> =
        out.digests.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{}}}, \
         \"result\": {line}, \"notes\": [{}], \"failures\": [{}], \"digests\": {{{}}}}}\n",
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host_json.join(", "),
        list(&out.notes),
        list(&out.failures),
        digests.join(", ")
    );
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = fs::write(&path, record) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
