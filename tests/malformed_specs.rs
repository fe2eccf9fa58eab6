//! A corpus of malformed scenario/spec inputs: every one must surface a
//! *typed* error ([`LoadError`] or a serde error) — never a panic and never
//! a silently-defaulted value. This is the other half of the round-trip
//! property tests: hostile input is rejected with a message a user can act
//! on.

use sprout::loader::RunSpec;
use sprout::LoadError;

/// Each entry: (label, TOML text that must fail to load).
const TOML_CORPUS: &[(&str, &str)] = &[
    ("empty document", ""),
    (
        "missing name",
        "[system]\nnum_files = 4\n[sim]\nhorizon = 100.0",
    ),
    ("unbalanced bracket", "name = \"x\"\n[system\nnum_files = 4"),
    (
        "string where number expected",
        "name = \"x\"\n[system]\nnum_files = \"four\"\n[sim]\nhorizon = 100.0",
    ),
    (
        "negative file count",
        "name = \"x\"\n[system]\nnum_files = -4\n[sim]\nhorizon = 100.0",
    ),
    (
        "unknown field",
        "name = \"x\"\nnum_filez = 4\n[sim]\nhorizon = 100.0",
    ),
    (
        "unknown scenario action",
        "name = \"x\"\n[system]\nnum_files = 4\n[sim]\nhorizon = 100.0\n\
         [scenario]\nname = \"s\"\n[[scenario.events]]\nat = 1.0\naction = \"Explode\"",
    ),
    (
        "action with wrong payload",
        "name = \"x\"\n[system]\nnum_files = 4\n[sim]\nhorizon = 100.0\n\
         [scenario]\nname = \"s\"\n[[scenario.events]]\nat = 1.0\n\
         [scenario.events.action.NodeDown]\nnode = \"two\"",
    ),
    (
        "duplicate key",
        "name = \"x\"\nname = \"y\"\n[system]\nnum_files = 4\n[sim]\nhorizon = 100.0",
    ),
    (
        "non-finite horizon",
        "name = \"x\"\n[system]\nnum_files = 4\n[sim]\nhorizon = inf",
    ),
    (
        "zero files",
        "name = \"x\"\n[system]\nnum_files = 0\n[sim]\nhorizon = 100.0",
    ),
    (
        "k greater than n",
        "name = \"x\"\n[system]\nnum_files = 4\nn = 2\nk = 5\n[sim]\nhorizon = 100.0",
    ),
    (
        "placement with bogus variant",
        "name = \"x\"\n[system]\nnum_files = 4\n[system.placement.Telepathy]\nzones = 3\n\
         [sim]\nhorizon = 100.0",
    ),
    (
        "retired no-cache spelling (now \"None\")",
        "name = \"x\"\n[system]\nnum_files = 4\n[sim]\nhorizon = 100.0\n\
         [sweep]\npolicies = [\"NoCache\"]",
    ),
    (
        "scenario rate for out-of-range file",
        "name = \"x\"\n[system]\nnum_files = 4\n[sim]\nhorizon = 100.0\n\
         [scenario]\nname = \"s\"\n[[scenario.events]]\nat = 1.0\n\
         [scenario.events.action.SetFileRate]\nfile = 99\nrate = 0.5",
    ),
];

const JSON_CORPUS: &[(&str, &str)] = &[
    ("empty document", ""),
    ("truncated object", "{\"name\": \"x\", \"system\": {"),
    ("array at top level", "[1, 2, 3]"),
    (
        "wrong type for system",
        "{\"name\": \"x\", \"system\": 7, \"sim\": {\"horizon\": 100.0}}",
    ),
    (
        "trailing garbage",
        "{\"name\": \"x\", \"system\": {\"num_files\": 4}, \"sim\": {\"horizon\": 100.0}} xxx",
    ),
    (
        "NaN literal",
        "{\"name\": \"x\", \"system\": {\"num_files\": 4}, \"sim\": {\"horizon\": NaN}}",
    ),
];

/// Parses and, when parsing succeeds, validates the spec the rest of the
/// way (semantic errors surface at sweep construction). Returns the typed
/// error the pipeline produced.
fn load_fully(parse: impl Fn() -> Result<RunSpec, LoadError>) -> Result<(), LoadError> {
    parse()?.to_sweep(true).map(|_| ())
}

#[test]
fn every_malformed_toml_input_yields_a_typed_error() {
    for (label, text) in TOML_CORPUS {
        let result = std::panic::catch_unwind(|| load_fully(|| RunSpec::from_toml_str(text)));
        let outcome = result.unwrap_or_else(|_| panic!("{label}: parsing panicked"));
        let error = outcome.expect_err(label);
        // Typed means displayable with substance, not a unit placeholder.
        assert!(
            !error.to_string().is_empty(),
            "{label}: error has no message"
        );
    }
}

#[test]
fn every_malformed_json_input_yields_a_typed_error() {
    for (label, text) in JSON_CORPUS {
        let result = std::panic::catch_unwind(|| load_fully(|| RunSpec::from_json_str(text)));
        let outcome = result.unwrap_or_else(|_| panic!("{label}: parsing panicked"));
        let error = outcome.expect_err(label);
        assert!(
            !error.to_string().is_empty(),
            "{label}: error has no message"
        );
    }
}

/// Scenario-level validation failures (the spec parses, compilation rejects
/// it) must also come back as values, and `load` must wrap I/O problems.
#[test]
fn semantic_and_io_failures_are_typed() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let missing =
        RunSpec::load(root.join("scenarios/does_not_exist.toml")).expect_err("missing file");
    assert!(matches!(missing, LoadError::Io { .. }), "{missing}");

    let unsupported = RunSpec::load(root.join("README.md")).expect_err("unsupported extension");
    assert!(
        matches!(unsupported, LoadError::UnsupportedFormat { .. }),
        "{unsupported}"
    );

    // The parse error carries the offending path for CI logs.
    let dir = std::env::temp_dir().join("sprout_malformed_specs");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "name = [unclosed").unwrap();
    let parse = RunSpec::load(&bad).expect_err("syntax error");
    match &parse {
        LoadError::Parse { path, .. } => assert!(path.contains("bad.toml"), "{parse}"),
        other => panic!("expected a parse error, got {other}"),
    }
}
