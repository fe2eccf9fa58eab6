//! A corpus of malformed scenario/spec inputs: every one must surface a
//! *typed* error ([`LoadError`] or a serde error) — never a panic and never
//! a silently-defaulted value. This is the other half of the round-trip
//! property tests: hostile input is rejected with a message a user can act
//! on.

use sprout::loader::RunSpec;
use sprout::LoadError;

/// A valid head that entries extend with one bad `[scenario]` or `[sweep]`.
macro_rules! head {
    () => {
        "name = \"x\"\n[system]\nnum_files = 4\ncache_chunks = 2\n[sim]\nhorizon = 100.0\n"
    };
}

/// Each entry: (label, TOML text that must fail to load or run, a fragment
/// of the error it must fail with).
const TOML_CORPUS: &[(&str, &str, &str)] = &[
    ("empty document", "", "missing field `name`"),
    (
        "missing name",
        "[system]\nnum_files = 4\ncache_chunks = 2\n[sim]\nhorizon = 100.0",
        "missing field `name`",
    ),
    (
        "unbalanced bracket",
        "name = \"x\"\n[system\nnum_files = 4",
        "expected `]` closing the table header",
    ),
    (
        "string where number expected",
        "name = \"x\"\n[system]\nnum_files = \"four\"\n[sim]\nhorizon = 100.0",
        "invalid type: string \"four\"",
    ),
    (
        "negative file count",
        "name = \"x\"\n[system]\nnum_files = -4\n[sim]\nhorizon = 100.0",
        "invalid value: integer `-4`",
    ),
    (
        "unknown field",
        "name = \"x\"\nnum_filez = 4\n[sim]\nhorizon = 100.0",
        "unknown field `num_filez`",
    ),
    (
        "unknown scenario action",
        concat!(
            head!(),
            "[scenario]\nname = \"s\"\n[[scenario.events]]\nat = 1.0\naction = \"Explode\""
        ),
        "unknown variant `Explode`",
    ),
    (
        "action with wrong payload",
        concat!(
            head!(),
            "[scenario]\nname = \"s\"\n[[scenario.events]]\nat = 1.0\n\
             [scenario.events.action.NodeDown]\nnode = \"two\""
        ),
        "invalid type: string \"two\"",
    ),
    (
        "duplicate key",
        "name = \"x\"\nname = \"y\"\n[system]\nnum_files = 4\n[sim]\nhorizon = 100.0",
        "duplicate key `name`",
    ),
    (
        "non-finite horizon",
        "name = \"x\"\n[system]\nnum_files = 4\ncache_chunks = 2\n[sim]\nhorizon = inf",
        "horizon must be positive and finite",
    ),
    (
        "zero files",
        "name = \"x\"\n[system]\nnum_files = 0\ncache_chunks = 2\n[sim]\nhorizon = 100.0",
        "no files",
    ),
    (
        "k greater than n",
        "name = \"x\"\n[system]\nnum_files = 4\ncache_chunks = 2\nn = 2\nk = 5\n\
         [sim]\nhorizon = 100.0",
        "invalid code (2, 5)",
    ),
    (
        "placement with bogus variant",
        "name = \"x\"\n[system]\nnum_files = 4\ncache_chunks = 2\n\
         [system.placement.Telepathy]\nzones = 3\n[sim]\nhorizon = 100.0",
        "unknown variant `Telepathy`",
    ),
    (
        "retired no-cache spelling (now \"None\")",
        concat!(head!(), "[sweep]\npolicies = [\"NoCache\"]"),
        "unknown variant `NoCache`",
    ),
    (
        "scenario rate for out-of-range file",
        concat!(
            head!(),
            "[scenario]\nname = \"s\"\n[[scenario.events]]\nat = 1.0\n\
             [scenario.events.action.SetFileRate]\nfile = 99\nrate = 0.5"
        ),
        "references file 99 but the system has 4",
    ),
    (
        "infinite single-file rate",
        concat!(
            head!(),
            "[scenario]\nname = \"s\"\n[[scenario.events]]\nat = 1.0\n\
             [scenario.events.action.SetFileRate]\nfile = 0\nrate = inf"
        ),
        "arrival rate inf is not finite and non-negative",
    ),
    (
        "infinite rate in a rate vector",
        concat!(
            head!(),
            "[scenario]\nname = \"s\"\n[[scenario.events]]\nat = 1.0\n\
             [scenario.events.action.SetRates]\nrates = [0.1, inf, 0.1, 0.1]"
        ),
        "arrival rate inf is not finite and non-negative",
    ),
    (
        "file size past the byte range",
        "name = \"x\"\n[system]\nnum_files = 4\ncache_chunks = 2\nsize_mb = 20000000000000\n\
         [sim]\nhorizon = 100.0",
        "overflows a byte count",
    ),
    (
        "per-slot series of 10^15 slots",
        "name = \"tiny_slot\"\n[system]\nnum_files = 4\ncache_chunks = 2\n\
         [sim]\nhorizon = 1000000.0\nquick_horizon = 1000000.0\nslot_length = 0.000000001",
        "MAX_SLOTS",
    ),
    (
        "warmup past the horizon",
        concat!(head!(), "warmup = 5000.0"),
        "warmup must be finite, non-negative and before the 200 s horizon, got 5000",
    ),
    (
        "warmup at the quick horizon",
        concat!(head!(), "quick_horizon = 300.0\nwarmup = 300.0"),
        "before the 300 s horizon, got 300",
    ),
    (
        "infinite warmup",
        concat!(head!(), "warmup = inf"),
        "warmup must be finite, non-negative and before the 200 s horizon, got inf",
    ),
    (
        "negative warmup",
        concat!(head!(), "warmup = -1.0"),
        "warmup must be finite, non-negative and before the 200 s horizon, got -1",
    ),
    (
        "infinite cache latency",
        concat!(head!(), "cache_chunk_latency = inf"),
        "cache_chunk_latency must be finite and non-negative, got inf",
    ),
    (
        "NaN cache latency",
        concat!(head!(), "cache_chunk_latency = nan"),
        "cache_chunk_latency must be finite and non-negative, got NaN",
    ),
    (
        "negative cache latency",
        concat!(head!(), "cache_chunk_latency = -0.001"),
        "cache_chunk_latency must be finite and non-negative, got -0.001",
    ),
    (
        "byte-backend object size past the byte range",
        concat!(head!(), "[sweep]\nbyte_object_mb = 20000000000000"),
        "byte_object_mb = 20000000000000 overflows a byte count",
    ),
    (
        "duplicated placements",
        concat!(
            head!(),
            "[sweep]\nplacements = [\"TwoChoices\", \"TwoChoices\"]"
        ),
        "duplicate value 'two_choice' on sweep axis 'placement'",
    ),
    (
        "duplicated cache sizes",
        concat!(head!(), "[sweep]\ncache_sizes = [2, 2]"),
        "duplicate value '2' on sweep axis 'cache_chunks'",
    ),
    (
        "duplicated policies",
        concat!(
            head!(),
            "[sweep]\npolicies = [\"Functional\", \"Functional\"]"
        ),
        "duplicate value 'functional' on sweep axis 'policy'",
    ),
    (
        "load points with one label",
        concat!(head!(), "[sweep]\nload_points = [1.0, 1.00]"),
        "duplicate value '1' on sweep axis 'load'",
    ),
    (
        "duplicated backends",
        concat!(head!(), "[sweep]\nbackends = [\"Analytic\", \"Analytic\"]"),
        "duplicate value 'analytic' on sweep axis 'backend'",
    ),
    (
        "empty policy axis",
        concat!(head!(), "[sweep]\npolicies = []"),
        "sweep axis 'policy' has no values",
    ),
    (
        "negative load point",
        concat!(head!(), "[sweep]\nload_points = [-1.0]"),
        "load points must be finite and non-negative",
    ),
    (
        "zero replications",
        concat!(head!(), "[sweep]\nreplications = 0"),
        "replications must be positive",
    ),
];

/// Each entry: (label, JSON text that must fail to load, error fragment).
const JSON_CORPUS: &[(&str, &str, &str)] = &[
    ("empty document", "", "unexpected end of input"),
    (
        "truncated object",
        "{\"name\": \"x\", \"system\": {",
        "found end of input",
    ),
    (
        "array at top level",
        "[1, 2, 3]",
        "invalid type: integer `1`",
    ),
    (
        "wrong type for system",
        "{\"name\": \"x\", \"system\": 7, \"sim\": {\"horizon\": 100.0}}",
        "invalid type: integer `7`",
    ),
    (
        "trailing garbage",
        "{\"name\": \"x\", \"system\": {\"num_files\": 4, \"cache_chunks\": 2}, \
         \"sim\": {\"horizon\": 100.0}} xxx",
        "trailing characters",
    ),
    (
        "NaN literal",
        "{\"name\": \"x\", \"system\": {\"num_files\": 4, \"cache_chunks\": 2}, \
         \"sim\": {\"horizon\": NaN}}",
        "unexpected character `N`",
    ),
];

/// Parses and, when parsing succeeds, validates the spec the rest of the
/// way: semantic errors surface at sweep construction, and scenario errors
/// when the run compiles each cell. Returns the typed error the pipeline
/// produced.
fn load_fully(parse: impl Fn() -> Result<RunSpec, LoadError>) -> Result<(), LoadError> {
    parse()?.to_sweep(true)?.run(1)?;
    Ok(())
}

/// Runs each entry through [`load_fully`]: it must return (not panic) an
/// error whose message holds the entry's fragment.
fn assert_corpus_fails(
    corpus: &[(&str, &str, &str)],
    parse: fn(&str) -> Result<RunSpec, LoadError>,
) {
    for (label, text, fragment) in corpus {
        let result = std::panic::catch_unwind(|| load_fully(|| parse(text)));
        let outcome = result.unwrap_or_else(|_| panic!("{label}: loading panicked"));
        let error = outcome.expect_err(label).to_string();
        assert!(
            error.contains(fragment),
            "{label}: expected an error containing {fragment:?}, got {error:?}"
        );
    }
}

#[test]
fn every_malformed_toml_input_yields_a_typed_error() {
    assert_corpus_fails(TOML_CORPUS, RunSpec::from_toml_str);
}

#[test]
fn every_malformed_json_input_yields_a_typed_error() {
    assert_corpus_fails(JSON_CORPUS, RunSpec::from_json_str);
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
