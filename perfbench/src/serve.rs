//! The serve layer, measured in the `sweep` workload's traced run: a
//! `ringsim serve --workers 1 --sweep-jobs 1` driven by a closed loop of
//! `nproc` clients from this process.
//!
//! It is not a workload of its own. Session times are dominated by the
//! server process's simulation and system-call work, which on a shared
//! host slowed by up to 1.7x over minutes; no calibration kernel run in
//! this process followed it (see README.md). Its figures are therefore
//! per-layer metrics, which carry no bound.
//!
//! Each session does `POST /runs`, follows `GET /runs/:id/events` to the
//! terminal event, and fetches one artifact. A run id is a function of
//! `(experiment, refs)` only, so fresh sessions use fresh reference
//! budgets, and every [`RESUBMIT_EVERY`]-th session of a client resubmits
//! the body of a finished session instead, which takes the dedupe path.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use ringsim_sweep::{run_experiment, SweepConfig};

use crate::stats::{median, nproc, tail};
use crate::tracer::Tracer;
use crate::{mix, Args, Outcome};

/// The experiment every session runs: model-based and cheap at a small
/// reference budget, so HTTP, queueing, SSE and artifacts weigh in.
const EXPERIMENT: &str = "fig3";

/// The artifact every session fetches.
const ARTIFACT: &str = "fig3.json";

/// Fresh sessions draw their reference budgets without replacement from a
/// seeded shuffle of `REFS_BASE..REFS_BASE + REFS_BAND`, so the work per
/// session does not drift over a run.
const REFS_BASE: u64 = 1_500;

/// Width of the fresh reference-budget band (more than a run uses).
const REFS_BAND: u64 = 1_024;

/// Every this many sessions, a client resubmits a finished body.
const RESUBMIT_EVERY: u64 = 4;

/// Per-request and start-up deadline.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Deadline of one `/healthz` probe while the server starts; a probe that
/// times out is retried until [`TIMEOUT`].
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

/// A running `ringsim serve`; killed on drop if it was not shut down.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Starts a server storing under `dir` and waits for its first answered
    /// request.
    fn start(ringsim: &Path, dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let log = dir.join("serve.log");
        let start = Instant::now();
        let child = Command::new(ringsim)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--sweep-jobs", "1"])
            .args(["--gc-interval-secs", "0"])
            .arg("--out")
            .arg(dir.join("data"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(&log)?)
            .spawn()?;
        let mut server = Server { child, addr: String::new() };
        while server.addr.is_empty() {
            let text = fs::read_to_string(&log).unwrap_or_default();
            if let Some(rest) = text.split("listening on http://").nth(1) {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_owned();
            } else if start.elapsed() > TIMEOUT || server.child.try_wait()?.is_some() {
                return Err(io::Error::other(format!("ringsim serve did not start: {text}")));
            } else {
                thread::sleep(Duration::from_millis(1));
            }
        }
        while !matches!(
            request_within(&server.addr, "GET", "/healthz", "", PROBE_TIMEOUT),
            Ok((200, _))
        ) {
            if start.elapsed() > TIMEOUT {
                return Err(io::Error::other("ringsim serve never answered /healthz"));
            }
            thread::sleep(Duration::from_millis(1));
        }
        Ok(server)
    }

    /// Drains the server through `POST /shutdown` and waits for it to exit.
    fn stop(mut self) -> io::Result<()> {
        request(&self.addr, "POST", "/shutdown", "")?;
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("ringsim serve exited with {status}")))
                };
            }
            if start.elapsed() > TIMEOUT {
                return Err(io::Error::other("ringsim serve did not drain"));
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Opens a connection and sends one `Connection: close` request; reads
/// and writes time out after `timeout`.
fn send(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    Ok(stream)
}

/// One request; returns the status and the (de-chunked) body.
fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
    request_within(addr, method, path, body, TIMEOUT)
}

/// [`request`] with its own read and write deadline.
fn request_within(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<(u16, Vec<u8>)> {
    let mut raw = Vec::new();
    send(addr, method, path, body, timeout)?.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::other("response without a header block"))?;
    let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other("response without a status"))?;
    let body = &raw[split + 4..];
    let body =
        if head.contains("transfer-encoding: chunked") { dechunk(body) } else { body.to_vec() };
    Ok((status, body))
}

/// Decodes a chunked body.
fn dechunk(mut rest: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(eol) = rest.windows(2).position(|w| w == b"\r\n") {
        let size = std::str::from_utf8(&rest[..eol])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .unwrap_or(0);
        let data = &rest[eol + 2..];
        if size == 0 || data.len() < size {
            break;
        }
        out.extend_from_slice(&data[..size]);
        rest = data[size..].strip_prefix(b"\r\n").unwrap_or(&data[size..]);
    }
    out
}

/// One finished session.
struct Session {
    refs: u64,
    deduped: bool,
    submit: f64,
    queue_wait: f64,
    exec: f64,
    done: f64,
    artifact_fetch: f64,
    artifact: Vec<u8>,
}

/// The reference budgets of fresh sessions.
struct FreshRefs {
    pool: Mutex<Vec<u64>>,
    overflow: AtomicU64,
}

impl FreshRefs {
    fn new(seed: u64) -> Self {
        let mut pool: Vec<u64> = (REFS_BASE..REFS_BASE + REFS_BAND).collect();
        for i in (1..pool.len()).rev() {
            let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
            pool.swap(i, j);
        }
        Self { pool: Mutex::new(pool), overflow: AtomicU64::new(REFS_BASE + REFS_BAND) }
    }

    fn next(&self) -> u64 {
        let drawn = self.pool.lock().expect("refs pool lock").pop();
        drawn.unwrap_or_else(|| self.overflow.fetch_add(1, Ordering::Relaxed))
    }
}

/// Runs one session for the body with `refs`; spans go to track `tid`.
fn session(addr: &str, refs: u64, tracer: &Tracer, tid: u32) -> Result<Session, String> {
    let body = format!("{{\"experiment\": \"{EXPERIMENT}\", \"refs\": {refs}}}");
    let start = Instant::now();
    let (status, ack) = tracer
        .span("POST /runs", "serve", tid, "", || request(addr, "POST", "/runs", &body))
        .map_err(|e| format!("POST /runs: {e}"))?;
    let acked = start.elapsed().as_secs_f64();
    let ack = String::from_utf8_lossy(&ack).into_owned();
    // 202 creates a run; 200 answers a body whose run already exists.
    let deduped = status == 200;
    if status != 200 && status != 202 {
        return Err(format!("POST /runs answered {status}: {ack}"));
    }
    let id = ack
        .split("\"id\"")
        .nth(1)
        .and_then(|r| r.split('"').nth(1))
        .ok_or_else(|| format!("ack without an id: {ack}"))?
        .to_owned();

    let (running, terminal) = tracer
        .span("GET /runs/:id/events", "serve", tid, &id, || follow(addr, &id, start))
        .map_err(|e| format!("events of {id}: {e}"))?;
    let (done, ok) = terminal;
    if !ok {
        return Err(format!("run {id} (refs {refs}) failed"));
    }
    let running = running.unwrap_or(acked);

    let fetch_start = Instant::now();
    let path = format!("/runs/{id}/artifacts/{ARTIFACT}");
    let (status, artifact) = tracer
        .span("GET /runs/:id/artifacts", "serve", tid, &id, || request(addr, "GET", &path, ""))
        .map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path} answered {status}"));
    }
    Ok(Session {
        refs,
        deduped,
        submit: acked,
        queue_wait: running - acked,
        exec: done - running,
        done,
        artifact_fetch: fetch_start.elapsed().as_secs_f64(),
        artifact,
    })
}

/// Follows a run's event stream to its terminal event. Returns when the
/// `running` state and the terminal event arrived (seconds since `start`)
/// and whether the run finished `done`.
fn follow(addr: &str, id: &str, start: Instant) -> io::Result<(Option<f64>, (f64, bool))> {
    let mut stream = send(addr, "GET", &format!("/runs/{id}/events"), "", TIMEOUT)?;
    let mut text = String::new();
    let mut buf = [0u8; 4096];
    let mut running = None;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::other("stream closed before a terminal event"));
        }
        text.push_str(&String::from_utf8_lossy(&buf[..n]));
        let now = start.elapsed().as_secs_f64();
        if running.is_none() && text.contains("\"state\":\"running\"") {
            running = Some(now);
        }
        if text.contains("event: done") {
            return Ok((running, (now, true)));
        }
        if text.contains("event: failed") {
            return Ok((running, (now, false)));
        }
    }
}

/// Drives the closed loop until `seconds` have passed and returns the
/// finished sessions.
fn closed_loop(
    server: &Server,
    seconds: f64,
    seed: u64,
    fresh: &FreshRefs,
    finished: &Mutex<Vec<u64>>,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<Session> {
    let sessions = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let start = Instant::now();
    thread::scope(|s| {
        for client in 0..nproc() as u64 {
            let (sessions, failures) = (&sessions, &failures);
            s.spawn(move || {
                let mut rng = mix(seed, 1_000 + client);
                let mut i = 0u64;
                while start.elapsed().as_secs_f64() < seconds {
                    i += 1;
                    rng = mix(rng, i);
                    let earlier = if i.is_multiple_of(RESUBMIT_EVERY) {
                        let earlier = finished.lock().expect("finished lock");
                        earlier.get((rng % earlier.len().max(1) as u64) as usize).copied()
                    } else {
                        None
                    };
                    let refs = earlier.unwrap_or_else(|| fresh.next());
                    let tid = u32::try_from(client).unwrap_or(0);
                    match tracer.span("session", "bench", tid, "", || {
                        session(&server.addr, refs, tracer, tid)
                    }) {
                        Ok(done) => {
                            finished.lock().expect("finished lock").push(refs);
                            sessions.lock().expect("sessions lock").push(done);
                        }
                        Err(e) => failures.lock().expect("failures lock").push(e),
                    }
                }
            });
        }
    });
    let sessions = sessions.into_inner().expect("sessions lock");
    for e in failures.into_inner().expect("failures lock") {
        out.fail(e);
    }
    out.attempted += sessions.len() as u64;
    sessions
}

/// Checks every served artifact byte for byte against an in-process
/// `run_experiment` at the same reference budget.
fn check_artifacts(sessions: &[Session], tmp: &Path, out: &mut Outcome) {
    let mut served: BTreeMap<u64, Vec<&[u8]>> = BTreeMap::new();
    for s in sessions {
        served.entry(s.refs).or_default().push(&s.artifact);
    }
    let exp = ringsim_bench::experiments::find(EXPERIMENT).expect("registered experiment");
    for (refs, artifacts) in served {
        let dir: PathBuf = tmp.join(format!("check-{refs}"));
        let cfg = SweepConfig::new(refs).jobs(nproc()).cache(false).out_dir(&dir);
        run_experiment(exp, &cfg);
        let local = fs::read(dir.join(ARTIFACT)).unwrap_or_default();
        let _ = fs::remove_dir_all(&dir);
        for a in artifacts {
            out.check(!local.is_empty() && a == local.as_slice(), || {
                format!("served {ARTIFACT} at refs {refs} differs from run_experiment")
            });
        }
    }
}

/// Measures the serve layer for `seconds` of traced sessions after one
/// untimed warm-up session, then checks every served artifact.
pub fn layer(args: &Args, tmp: &Path, seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    let server = match Server::start(&args.ringsim, &tmp.join("server")) {
        Ok(server) => server,
        Err(e) => {
            out.fail(format!("serve set-up: {e}"));
            return;
        }
    };
    let fresh = FreshRefs::new(args.seed);
    let finished = Mutex::new(Vec::new());
    let refs = fresh.next();
    match session(&server.addr, refs, &Tracer::new(false), 0) {
        Ok(_) => finished.lock().expect("finished lock").push(refs),
        Err(e) => out.fail(format!("warm-up session: {e}")),
    }
    let start = Instant::now();
    let sessions = closed_loop(&server, seconds, args.seed, &fresh, &finished, tracer, out);
    let wall = start.elapsed().as_secs_f64();
    if let Err(e) = server.stop() {
        out.fail(format!("serve shutdown: {e}"));
    }

    let self_s = tracer.self_secs().get("serve").copied().unwrap_or(0.0);
    out.set("serve.self_s", self_s / sessions.len().max(1) as f64);
    let of = |f: &dyn Fn(&Session) -> f64, fresh_only: bool| {
        median(&sessions.iter().filter(|s| !(fresh_only && s.deduped)).map(f).collect::<Vec<_>>())
    };
    out.set("serve.submit_ms", of(&|s| s.submit * 1e3, false));
    out.set("serve.queue_wait_s", of(&|s| s.queue_wait, true));
    out.set("serve.exec_s", of(&|s| s.exec, true));
    out.set("serve.artifact_ms", of(&|s| s.artifact_fetch * 1e3, false));
    let deduped = sessions.iter().filter(|s| s.deduped).count();
    out.set("serve.dedupe_ratio", deduped as f64 / sessions.len().max(1) as f64);
    out.set("serve.sessions", sessions.len() as f64);
    out.set("serve.runs_per_s", sessions.len() as f64 / wall);
    let done_times: Vec<f64> = sessions.iter().map(|s| s.done).collect();
    out.set("serve.done_p50_s", median(&done_times));
    match tail(&done_times) {
        Some((pct, value)) => {
            out.set("serve.done_tail_s", value);
            out.set("serve.done_tail_pct", pct);
            out.notes
                .push(format!("serve.done_tail_s is p{pct:.1} of {} sessions", done_times.len()));
        }
        None => out.notes.push(format!(
            "serve.done_tail_s: {} sessions are too few for a tail with ten beyond it",
            done_times.len()
        )),
    }
    check_artifacts(&sessions, tmp, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changing_the_seed_changes_the_fresh_budgets() {
        let draws = |seed| {
            let fresh = FreshRefs::new(seed);
            (0..8).map(|_| fresh.next()).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
        assert!(draws(3).iter().all(|r| (REFS_BASE..REFS_BASE + REFS_BAND).contains(r)));
    }

    #[test]
    fn dechunk_reassembles_chunks() {
        assert_eq!(dechunk(b"3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"), b"abcde");
    }
}
