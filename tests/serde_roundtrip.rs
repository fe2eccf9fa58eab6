//! Property tests for the loadable run-spec types: a generated value, written
//! out by a small reference writer as a TOML document and as a JSON document,
//! parses back to exactly the same value through the vendored serde stack.
//!
//! The writer renders floats with `{:?}` (Rust's shortest round-trip
//! formatting), so equality is exact `PartialEq` — no tolerance — and the
//! tests keep covering float fidelity in both parsers. It emits the
//! externally-tagged shapes the derive reads: a unit variant is a string, a
//! struct variant a one-key table or object. An absent `Option` is omitted
//! in TOML (which has no null) and written as `null` in JSON.
//!
//! TOML documents must be tables at top level, so the TOML leg writes
//! `value = <inline table>` and reads the value back from that key.

use proptest::collection::vec;
use proptest::prelude::*;
use serde::Deserialize;
use sprout::{PlacementChoice, ScenarioActionSpec, ScenarioEventSpec, ScenarioSpec};

/// The document shapes the reference writer knows.
enum Doc {
    Int(usize),
    Float(f64),
    /// A string from the ASCII names below: its `{:?}` form is a valid
    /// string literal in both TOML and JSON.
    Str(String),
    List(Vec<Doc>),
    /// Fields in order; `None` is an absent `Option`.
    Map(Vec<(&'static str, Option<Doc>)>),
}

fn variant(name: &'static str, fields: Vec<(&'static str, Option<Doc>)>) -> Doc {
    Doc::Map(vec![(name, Some(Doc::Map(fields)))])
}

fn write(doc: &Doc, json: bool) -> String {
    match doc {
        Doc::Int(v) => v.to_string(),
        Doc::Float(v) => format!("{v:?}"),
        Doc::Str(s) => format!("{s:?}"),
        Doc::List(items) => {
            let items: Vec<String> = items.iter().map(|d| write(d, json)).collect();
            format!("[{}]", items.join(", "))
        }
        Doc::Map(fields) => {
            let fields: Vec<String> = fields
                .iter()
                .filter_map(|(key, value)| match (value, json) {
                    (Some(value), true) => Some(format!("{key:?}: {}", write(value, json))),
                    (None, true) => Some(format!("{key:?}: null")),
                    (Some(value), false) => Some(format!("{key} = {}", write(value, json))),
                    (None, false) => None,
                })
                .collect();
            format!("{{ {} }}", fields.join(", "))
        }
    }
}

fn placement_doc(choice: &PlacementChoice) -> Doc {
    match choice {
        PlacementChoice::RandomGroups { groups } => {
            variant("RandomGroups", vec![("groups", groups.map(Doc::Int))])
        }
        PlacementChoice::ConsistentHash { vnodes } => {
            variant("ConsistentHash", vec![("vnodes", Some(Doc::Int(*vnodes)))])
        }
        PlacementChoice::TwoChoices => Doc::Str("TwoChoices".into()),
        PlacementChoice::XorProximity => Doc::Str("XorProximity".into()),
        PlacementChoice::AntiAffinity { zones } => {
            variant("AntiAffinity", vec![("zones", Some(Doc::Int(*zones)))])
        }
    }
}

fn action_doc(action: &ScenarioActionSpec) -> Doc {
    match action {
        ScenarioActionSpec::NodeDown { node } => {
            variant("NodeDown", vec![("node", Some(Doc::Int(*node)))])
        }
        ScenarioActionSpec::NodeUp { node } => {
            variant("NodeUp", vec![("node", Some(Doc::Int(*node)))])
        }
        ScenarioActionSpec::SetRates { rates } => variant(
            "SetRates",
            vec![(
                "rates",
                Some(Doc::List(rates.iter().map(|r| Doc::Float(*r)).collect())),
            )],
        ),
        ScenarioActionSpec::SetFileRate { file, rate } => variant(
            "SetFileRate",
            vec![
                ("file", Some(Doc::Int(*file))),
                ("rate", Some(Doc::Float(*rate))),
            ],
        ),
        ScenarioActionSpec::ScaleRates { factor } => {
            variant("ScaleRates", vec![("factor", Some(Doc::Float(*factor)))])
        }
        ScenarioActionSpec::Reoptimize => Doc::Str("Reoptimize".into()),
    }
}

fn scenario_doc(spec: &ScenarioSpec) -> Doc {
    let events = spec
        .events
        .iter()
        .map(|event| {
            Doc::Map(vec![
                ("at", Some(Doc::Float(event.at))),
                ("action", Some(action_doc(&event.action))),
            ])
        })
        .collect();
    Doc::Map(vec![
        ("name", Some(Doc::Str(spec.name.clone()))),
        ("events", Some(Doc::List(events))),
    ])
}

/// Writes `doc` as TOML and as JSON and asserts both parse back to `value`.
fn parses_back<T>(value: &T, doc: &Doc)
where
    T: for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
{
    let toml_text = format!("value = {}\n", write(doc, false));
    let table: toml::Table = toml::from_str(&toml_text).expect("TOML parses");
    let from_toml = T::deserialize(toml::de::ValueDeserializer::new(table["value"].clone()))
        .unwrap_or_else(|e| panic!("{e}\n---\n{toml_text}"));
    assert_eq!(&from_toml, value, "TOML\n---\n{toml_text}");

    let json_text = write(doc, true);
    let from_json: T =
        serde_json::from_str(&json_text).unwrap_or_else(|e| panic!("{e}\n---\n{json_text}"));
    assert_eq!(&from_json, value, "JSON\n---\n{json_text}");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn placement_choice_roundtrips(value in placement_choice()) {
        parses_back(&value, &placement_doc(&value));
    }

    #[test]
    fn scenario_spec_roundtrips(value in scenario_spec()) {
        parses_back(&value, &scenario_doc(&value));
    }
}
