//! Golden-file test for the JSONL event log.
//!
//! The JSONL bytes are the trace wire format: `trace_report` parses them,
//! and the committed `trace_hash` pins in `results/BENCH_*.json` are
//! FNV-1a hashes of them. The Chrome golden file cannot catch a change
//! here (the Chrome exporter builds its `args` itself), so this file pins
//! one line per [`TraceEvent`](pensieve_obs::TraceEvent) variant.
//! Regenerate the golden file after an intentional format change with:
//!
//! ```text
//! cargo test -p pensieve-obs --test jsonl_golden -- --ignored regenerate
//! ```

use pensieve_obs::{parse_jsonl, sample_events, to_jsonl, trace_hash};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("events.jsonl")
}

#[test]
fn jsonl_matches_golden_file() {
    let rendered = to_jsonl(&sample_events());
    let golden = std::fs::read_to_string(golden_path()).expect("golden file exists");
    assert_eq!(
        rendered, golden,
        "to_jsonl output drifted from tests/golden/events.jsonl; \
         if intentional, regenerate with \
         `cargo test -p pensieve-obs --test jsonl_golden -- --ignored regenerate`"
    );
}

#[test]
fn golden_file_parses_back_to_the_samples() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file exists");
    assert_eq!(parse_jsonl(&golden), Ok(sample_events()));
}

/// `trace_hash` is FNV-1a over exactly these bytes (the value is the
/// FNV-1a-64 of `tests/golden/events.jsonl`); an empty trace hashes to the
/// FNV offset basis.
#[test]
fn trace_hash_is_fnv1a_of_the_jsonl_bytes() {
    assert_eq!(trace_hash(&sample_events()), 0x0e0d_8328_657b_c35c);
    assert_eq!(trace_hash(&[]), 0xcbf2_9ce4_8422_2325);
}

/// The samples only carry `FaultRecovery { conv: Some(_) }`; pin the
/// unattributed form too, which encodes as an explicit `null`.
#[test]
fn unattributed_fault_recovery_encodes_null_conv() {
    let ev = pensieve_obs::TraceEvent::FaultRecovery {
        at: pensieve_model::SimTime::from_secs(0.5),
        conv: None,
        kind: pensieve_obs::RecoveryKind::WorkerStall,
        tokens: 0,
    };
    let line = "{\"at\":0.5,\"conv\":null,\"ev\":\"FaultRecovery\",\"kind\":\"worker-stall\",\"tokens\":0}\n";
    assert_eq!(to_jsonl(std::slice::from_ref(&ev)), line);
    assert_eq!(parse_jsonl(line), Ok(vec![ev]));
}

/// Not a test: rewrites the golden file from the current encoder.
#[test]
#[ignore = "run explicitly to regenerate the golden file"]
fn regenerate() {
    std::fs::write(golden_path(), to_jsonl(&sample_events())).expect("write golden");
}
