//! End-to-end test of the multi-process sweep coordinator: a service
//! configured with `--shards 4` spawns real `ringsim serve-worker`
//! processes (the actual CLI binary, via `CARGO_BIN_EXE_ringsim`), and the
//! folded artifacts are byte-identical to a direct in-process run — the
//! cache-as-merge-substrate contract, one level above `--jobs` invariance.
//!
//! The same run also locks the SSE surface over real sockets: the event
//! stream replays monotonically non-decreasing progress and ends with a
//! terminal `done` event that matches `GET /runs/:id`, and `POST
//! /runs/:id/pin` drops the retention marker.

#[path = "../crates/serve/tests/support/client.rs"]
mod client;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use client::{http, json, str_of, tmp, u64_of, wait_done};
use ringsim::serve::{ServeConfig, Server};
use ringsim::sweep::{run_experiment, SweepConfig};
use ringsim_bench::experiments;

const REFS: u64 = 2_000;

/// Reads the full SSE stream of a run (the server closes it after the
/// terminal event) and returns the decoded `(event, data)` frames.
fn read_stream(addr: &str, id: &str) -> Vec<(String, String)> {
    let mut stream = TcpStream::connect(addr).expect("connect stream");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let req = format!(
        "GET /runs/{id}/events HTTP/1.1\r\nHost: {addr}\r\nAccept: text/event-stream\r\n\r\n"
    );
    stream.write_all(req.as_bytes()).expect("send stream request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read stream to close");
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").expect("stream headers");
    assert!(head.starts_with("HTTP/1.1 200"), "stream status: {head}");
    assert!(
        head.to_ascii_lowercase().contains("content-type: text/event-stream"),
        "stream content type: {head}"
    );
    assert!(
        head.to_ascii_lowercase().contains("transfer-encoding: chunked"),
        "stream must be chunked: {head}"
    );
    // Undo chunked framing, then split SSE frames on blank lines.
    let mut decoded = String::new();
    let mut rest = body;
    while let Some((size_line, after)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).expect("chunk size");
        if size == 0 {
            break;
        }
        decoded.push_str(&after[..size]);
        rest = after[size..].strip_prefix("\r\n").unwrap_or("");
    }
    decoded
        .split("\n\n")
        .filter(|frame| !frame.trim().is_empty() && !frame.starts_with(':'))
        .map(|frame| {
            let mut event = String::new();
            let mut data = String::new();
            for line in frame.lines() {
                if let Some(v) = line.strip_prefix("event: ") {
                    event = v.to_owned();
                } else if let Some(v) = line.strip_prefix("data: ") {
                    data = v.to_owned();
                }
            }
            (event, data)
        })
        .collect()
}

#[test]
fn four_shard_workers_fold_to_byte_identical_artifacts() {
    // Reference: a direct, serial, in-process run of the same submission.
    let ref_dir = tmp("reference");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let exp = experiments::find("fig3").expect("fig3 registered");
    let report = run_experiment(exp, &SweepConfig::new(REFS).jobs(1).out_dir(&ref_dir));
    assert!(!report.artifacts.is_empty());

    // Service under test: every run fans out across 4 worker processes of
    // the real CLI binary.
    let out_dir = tmp("service");
    let _ = std::fs::remove_dir_all(&out_dir);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        out_dir: out_dir.clone(),
        workers: 1,
        queue_cap: 4,
        sweep_jobs: 2,
        default_refs: REFS,
        shards: 4,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_ringsim"))),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let submission = format!("{{\"experiment\": \"fig3\", \"refs\": {REFS}}}");
    let (status, body) = http(&addr, "POST", "/runs", &submission);
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&body));
    let id = str_of(&json(&body), "id").to_owned();

    let status_doc = wait_done(&addr, &id);
    let points = status_doc.get("points").expect("points progress");
    let total = u64_of(points, "total");
    assert!(total > 0);
    assert_eq!(total, u64_of(points, "completed"), "sharded progress must sum to the sweep size");
    // Cold sharded run: each point is computed exactly once across the
    // workers (misses == total, no duplicated compute), and nothing was
    // pre-warmed. The fold's own cache hits are bookkeeping, not work, and
    // are deliberately not counted.
    let cache = status_doc.get("cache").expect("cache counts");
    assert_eq!(u64_of(cache, "misses"), total, "duplicated compute: {status_doc:?}");
    assert_eq!(u64_of(cache, "hits"), 0, "cold run must not report hits: {status_doc:?}");

    // The shard scratch directories are cleaned up after the fold.
    assert!(
        !out_dir.join("runs").join(&id).join("shards").exists(),
        "shard scratch dirs must be removed after a successful fold"
    );

    // Byte-identity against the direct run, through the artifact route.
    for artifact in &report.artifacts {
        let file = artifact.path.file_name().unwrap().to_string_lossy().into_owned();
        let (status, served) = http(&addr, "GET", &format!("/runs/{id}/artifacts/{file}"), "");
        assert_eq!(status, 200, "artifact {file}");
        let direct = std::fs::read(&artifact.path).expect("reference artifact");
        assert_eq!(served, direct, "artifact {file} differs between sharded and direct runs");
    }

    // The SSE stream (late subscriber: the run is already done) replays the
    // whole history — monotone progress, then a terminal event that agrees
    // with the status document.
    let frames = read_stream(&addr, &id);
    assert!(frames.len() >= 2, "stream too short: {frames:?}");
    let mut last_completed = 0;
    let mut progress_events = 0;
    for (event, data) in &frames[..frames.len() - 1] {
        assert_ne!(event.as_str(), "done", "terminal event must be last");
        if event == "progress" {
            let v = serde_json::parse_value(data).expect("progress data is JSON");
            let completed = u64_of(&v, "completed");
            assert!(
                completed > last_completed,
                "progress must be strictly increasing: {completed} after {last_completed}"
            );
            last_completed = completed;
            progress_events += 1;
        }
    }
    assert_eq!(progress_events, total, "one progress event per point");
    let (last_event, last_data) = frames.last().unwrap();
    assert_eq!(last_event.as_str(), "done");
    let terminal = serde_json::parse_value(last_data).expect("terminal data is JSON");
    assert_eq!(u64_of(&terminal, "points"), total);
    assert_eq!(u64_of(&terminal, "hits"), u64_of(cache, "hits"));
    assert_eq!(u64_of(&terminal, "misses"), u64_of(cache, "misses"));

    // Pinning drops the retention marker.
    let (status, body) = http(&addr, "POST", &format!("/runs/{id}/pin"), "");
    assert_eq!(status, 200, "pin: {}", String::from_utf8_lossy(&body));
    assert!(out_dir.join("runs").join(&id).join(".pinned").is_file());

    // /metrics advertises the worker-pool shape and the (idle) GC counters.
    let (status, body) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics = json(&body);
    let pool = metrics.get("pool").expect("pool stats");
    assert_eq!(u64_of(pool, "shards"), 4);
    assert_eq!(u64_of(pool, "workers"), 1);
    let gc = metrics.get("gc").expect("gc stats");
    assert_eq!(u64_of(gc, "deleted_runs"), 0);

    server.join();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}
