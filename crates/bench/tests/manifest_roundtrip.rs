//! Provenance gate for the committed artifacts: every file under
//! `results/` and every `BENCH_*.json` at the repo root must carry a
//! `clfp-manifest` header whose `config_hash` round-trips through
//! [`RunManifest::config_hash_of`] — otherwise `regen`'s overwrite guard
//! (which refuses to clobber results of unknown provenance) would lock
//! the repo's own artifacts out of regeneration.

use clfp_metrics::json::{render, Value};
use clfp_metrics::RunManifest;

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("bench crate lives two levels under the repo root")
}

fn is_hex_hash(hash: &str) -> bool {
    hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit())
}

#[test]
fn every_committed_artifact_carries_a_parsable_config_hash() {
    let root = repo_root();
    let mut checked = 0;

    let results = root.join("results");
    let entries = std::fs::read_dir(&results).expect("results/ exists");
    for entry in entries {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.ends_with(".md") || name.ends_with(".json")) {
            continue;
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        let hash = RunManifest::config_hash_of(&contents)
            .unwrap_or_else(|| panic!("results/{name}: no parsable config_hash"));
        assert!(is_hex_hash(&hash), "results/{name}: malformed hash `{hash}`");
        checked += 1;
    }

    for entry in std::fs::read_dir(&root).expect("repo root readable") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        let hash = RunManifest::config_hash_of(&contents)
            .unwrap_or_else(|| panic!("{name}: no parsable config_hash"));
        assert!(is_hex_hash(&hash), "{name}: malformed hash `{hash}`");
        checked += 1;
    }

    // The committed artifact set: 14+ results files and 2 BENCH files.
    // A collapse here means the directory walk silently missed them.
    assert!(checked >= 16, "only {checked} artifacts checked");
}

#[test]
fn fresh_manifest_headers_round_trip() {
    let config = clfp_limits::AnalysisConfig::quick();
    let manifest = clfp_bench::suite_manifest(&config)
        .with_pool_threads(3)
        .with_cache("warm");
    assert!(is_hex_hash(&manifest.config_hash));

    let header = manifest.to_markdown_header();
    assert_eq!(
        RunManifest::config_hash_of(&header).as_deref(),
        Some(manifest.config_hash.as_str())
    );
    // A record embeds the manifest as one member among its own.
    let record = Value::object()
        .with("suite", "fresh")
        .with("manifest", manifest.to_json())
        .with(
            "workloads",
            Value::Array(vec![Value::object().with("name", "scan")]),
        );
    let json = render(&record);
    assert_eq!(
        RunManifest::config_hash_of(&json).as_deref(),
        Some(manifest.config_hash.as_str())
    );

    // A stamped artifact (header + body) must parse identically to the
    // bare header — this is exactly what `write_guarded` reads back.
    let stamped = format!("{header}\n# Some table\n\n| a | b |\n");
    assert_eq!(
        RunManifest::config_hash_of(&stamped).as_deref(),
        Some(manifest.config_hash.as_str())
    );
}
