//! Property tests for the vendored serde stack: for every serde-able
//! configuration type, value → TOML → value and value → JSON → value are the
//! identity. Rust's float formatting is shortest-round-trip, so equality is
//! exact `PartialEq` — no tolerance.
//!
//! TOML documents must be tables at top level, so every value is wrapped in
//! a one-field `Doc` before rendering (the JSON leg reuses the same wrapper
//! to keep the two paths symmetrical).

use proptest::collection::vec;
use proptest::prelude::*;
use sprout::erasure::striped::StripeOpts;
use sprout::queueing::dist::ServiceDistribution;
use sprout::workload::RateProfile;
use sprout::{
    FileConfig, PlacementChoice, ScenarioActionSpec, ScenarioEventSpec, ScenarioSpec, SystemSpec,
};

use serde::{Deserialize, Serialize};

/// Top-level TOML wrapper: `value = ...`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Doc<T> {
    value: T,
}

fn roundtrips<T>(value: T)
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug + Clone,
{
    let doc = Doc { value };

    let toml_text = toml::to_string(&doc).expect("TOML-serializable");
    let from_toml: Doc<T> = toml::from_str(&toml_text).expect("TOML-reparsable");
    assert_eq!(from_toml, doc, "TOML round trip\n---\n{toml_text}");

    let json_text = serde_json::to_string(&doc).expect("JSON-serializable");
    let from_json: Doc<T> = serde_json::from_str(&json_text).expect("JSON-reparsable");
    assert_eq!(from_json, doc, "JSON round trip\n---\n{json_text}");
}

fn placement_choice() -> impl Strategy<Value = PlacementChoice> {
    prop_oneof![
        prop_oneof![Just(None), (1usize..2000).prop_map(Some)]
            .prop_map(|groups| PlacementChoice::RandomGroups { groups }),
        (1usize..512).prop_map(|vnodes| PlacementChoice::ConsistentHash { vnodes }),
        Just(PlacementChoice::TwoChoices),
        Just(PlacementChoice::XorProximity),
        (1usize..32).prop_map(|zones| PlacementChoice::AntiAffinity { zones }),
    ]
}

fn rate_profile() -> impl Strategy<Value = RateProfile> {
    prop_oneof![
        (0.0f64..100.0).prop_map(RateProfile::Constant),
        vec((0.01f64..100.0, 0.0f64..50.0), 1..6).prop_map(|segments| {
            let mut end = 0.0;
            let mut ends = Vec::new();
            let mut rates = Vec::new();
            for (duration, rate) in segments {
                end += duration;
                ends.push(end);
                rates.push(rate);
            }
            RateProfile::Piecewise { ends, rates }
        }),
    ]
}

fn stripe_opts() -> impl Strategy<Value = StripeOpts> {
    (1usize..1 << 20, 0usize..64).prop_map(|(stripe_len, threads)| StripeOpts {
        stripe_len,
        threads,
    })
}

fn action() -> impl Strategy<Value = ScenarioActionSpec> {
    prop_oneof![
        (0usize..32).prop_map(|node| ScenarioActionSpec::NodeDown { node }),
        (0usize..32).prop_map(|node| ScenarioActionSpec::NodeUp { node }),
        vec(0.0f64..10.0, 0..8).prop_map(|rates| ScenarioActionSpec::SetRates { rates }),
        (0usize..64, 0.0f64..10.0)
            .prop_map(|(file, rate)| ScenarioActionSpec::SetFileRate { file, rate }),
        (0.0f64..4.0).prop_map(|factor| ScenarioActionSpec::ScaleRates { factor }),
        Just(ScenarioActionSpec::Reoptimize),
    ]
}

fn scenario_spec() -> impl Strategy<Value = ScenarioSpec> {
    const NAMES: [&str; 5] = ["steady", "churn", "flash-crowd", "wave", "outage_2"];
    (0usize..NAMES.len(), vec((0.0f64..5000.0, action()), 0..6)).prop_map(|(name, events)| {
        ScenarioSpec {
            name: NAMES[name].to_string(),
            events: events
                .into_iter()
                .map(|(at, action)| ScenarioEventSpec { at, action })
                .collect(),
        }
    })
}

fn service_distribution() -> impl Strategy<Value = ServiceDistribution> {
    prop_oneof![
        (0.05f64..5.0).prop_map(|rate| ServiceDistribution::Exponential { rate }),
        (0.05f64..20.0).prop_map(|value| ServiceDistribution::Deterministic { value }),
        (0.05f64..5.0, 0.05f64..5.0).prop_map(|(low, extent)| ServiceDistribution::Uniform {
            low,
            high: low + extent,
        }),
        (0.05f64..3.0, 0.05f64..5.0)
            .prop_map(|(shift, rate)| ServiceDistribution::ShiftedExponential { shift, rate }),
    ]
}

fn file_config() -> impl Strategy<Value = FileConfig> {
    (
        0.0f64..2.0,
        1usize..4,
        0usize..4,
        1u64..1 << 30,
        prop_oneof![Just(None), vec(0usize..12, 1..8).prop_map(Some)],
    )
        .prop_map(
            |(arrival_rate, k, extra, size_bytes, placement)| FileConfig {
                arrival_rate,
                k,
                n: k + extra,
                size_bytes,
                placement,
            },
        )
}

fn system_spec() -> impl Strategy<Value = SystemSpec> {
    (
        vec(service_distribution(), 1..8),
        vec(file_config(), 1..8),
        0usize..64,
        // TOML integers are i64, so seeds keep to the representable half.
        0u64..1 << 63,
        placement_choice(),
    )
        .prop_map(
            |(node_services, files, cache_capacity_chunks, seed, placement)| SystemSpec {
                node_services,
                files,
                cache_capacity_chunks,
                seed,
                placement,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn placement_choice_roundtrips(value in placement_choice()) {
        roundtrips(value);
    }

    #[test]
    fn rate_profile_roundtrips(value in rate_profile()) {
        roundtrips(value);
    }

    #[test]
    fn stripe_opts_roundtrips(value in stripe_opts()) {
        roundtrips(value);
    }

    #[test]
    fn scenario_spec_roundtrips(value in scenario_spec()) {
        roundtrips(value);
    }

    #[test]
    fn system_spec_roundtrips(value in system_spec()) {
        roundtrips(value);
    }
}

#[test]
fn a_convergence_trace_written_before_the_work_counters_still_loads() {
    // `projections` and `line_search_probes` are `#[serde(default)]`: a
    // document from before they existed deserializes with both at zero, a
    // current one round-trips them, and any other missing field is an error.
    use sprout::optimizer::ConvergenceTrace;

    let old =
        r#"{"outer_objectives": [10.0, 7.5], "rounding_rounds": 4, "gradient_iterations": 100}"#;
    let trace: ConvergenceTrace = serde_json::from_str(old).expect("pre-counter JSON loads");
    assert_eq!(trace.gradient_iterations, 100);
    assert_eq!((trace.projections, trace.line_search_probes), (0, 0));

    roundtrips(ConvergenceTrace {
        projections: 673,
        line_search_probes: 647,
        ..trace
    });
    let missing = r#"{"outer_objectives": [], "rounding_rounds": 4}"#;
    assert!(serde_json::from_str::<ConvergenceTrace>(missing).is_err());
}
