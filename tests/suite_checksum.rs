//! A serve checksum is a full-width `u64`, so a suite document must carry
//! it as 16 hex digits: `metrics_check --suite` accepts the committed
//! `BENCH_suite.json` and refuses the same document with its checksums
//! written as JSON numbers, which round them.

use std::process::Command;

const SUITE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_suite.json");

fn check_suite(path: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_metrics_check"))
        .arg("--suite")
        .arg(path)
        .arg("--require-serve")
        .output()
        .unwrap()
}

#[test]
fn committed_suite_validates() {
    let out = check_suite(std::path::Path::new(SUITE));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn rounded_checksums_are_refused() {
    let text = std::fs::read_to_string(SUITE).unwrap();
    let key = "\"stream_checksum\": \"";
    let mut rounded = String::new();
    let mut rest = text.as_str();
    let mut replaced = 0;
    while let Some(at) = rest.find(key) {
        let hex = &rest[at + key.len()..at + key.len() + 16];
        let n = u64::from_str_radix(hex, 16).unwrap();
        rounded.push_str(&rest[..at]);
        rounded.push_str(&format!("\"stream_checksum\": {}", n as f64));
        rest = &rest[at + key.len() + 17..];
        replaced += 1;
    }
    rounded.push_str(rest);
    assert!(replaced > 0, "the committed suite has serve checksums");
    let path = std::env::temp_dir().join(format!("lrd-rounded-suite-{}.json", std::process::id()));
    std::fs::write(&path, rounded).unwrap();
    let out = check_suite(&path);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("16-digit hex"));
}
