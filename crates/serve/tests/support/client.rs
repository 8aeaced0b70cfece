//! Raw-socket HTTP client helpers shared by the service end-to-end tests
//! (`crates/serve/tests/serve_e2e.rs` and the root `tests/serve_shard_e2e.rs`,
//! which includes this file with `#[path]`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Value;

/// A per-process scratch path under the system temp dir.
pub fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ringsim-e2e-{tag}-{}", std::process::id()))
}

/// Minimal HTTP/1.1 client: one request, reads to EOF (the server always
/// closes), returns `(status, body_bytes)`.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response must have a header/body separator");
    let head = std::str::from_utf8(&raw[..header_end]).expect("ASCII headers");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {head:?}"));
    (status, raw[header_end + 4..].to_vec())
}

/// Parses a JSON response body.
pub fn json(body: &[u8]) -> Value {
    serde_json::parse_value(std::str::from_utf8(body).expect("UTF-8 JSON body"))
        .expect("valid JSON body")
}

/// The string field `key` of `v`.
pub fn str_of<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("expected string `{key}`, got {other:?}"),
    }
}

/// The non-negative integer field `key` of `v`.
pub fn u64_of(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) if *n >= 0 => *n as u64,
        other => panic!("expected integer `{key}`, got {other:?}"),
    }
}

/// Polls `GET /runs/:id` until the job is done; panics when it fails or
/// does not finish within five minutes.
pub fn wait_done(addr: &str, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) = http(addr, "GET", &format!("/runs/{id}"), "");
        assert_eq!(status, 200, "status poll failed: {}", String::from_utf8_lossy(&body));
        let v = json(&body);
        match str_of(&v, "state") {
            "done" => return v,
            "failed" => panic!("job failed: {v:?}"),
            _ => assert!(Instant::now() < deadline, "job did not finish in time: {v:?}"),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
