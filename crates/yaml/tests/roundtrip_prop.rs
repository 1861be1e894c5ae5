//! Property tests: any value tree the emitter can produce must re-parse to
//! an identical tree, and parsing must never panic on arbitrary input.

use proptest::prelude::*;
use wisdom_yaml::{emit, parse, Mapping, Value};

/// Strategy for scalar strings spanning the tricky regions of YAML syntax.
fn scalar_string() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9_./ {}:#|>\\-]{0,24}",
        "[ -~]{0,16}",
        Just(String::new()),
        Just("true".to_string()),
        Just("123".to_string()),
        Just("~".to_string()),
        Just("- item".to_string()),
        Just("{{ ansible_host }}".to_string()),
        "([a-z ]{0,8}\n){0,4}",
    ]
}

fn value_strategy() -> impl Strategy<Value = Value<'static>> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1.0e9f64..1.0e9).prop_map(Value::Float),
        scalar_string().prop_map(Value::from),
    ];
    leaf.prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Seq),
            prop::collection::vec(("[a-zA-Z0-9_.: -]{1,12}", inner), 0..5).prop_map(|pairs| {
                let mut m = Mapping::new();
                for (k, v) in pairs {
                    m.insert(k, v);
                }
                Value::Map(m)
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn emit_parse_round_trip(v in value_strategy()) {
        let text = emit(&v);
        let back = parse(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nemitted:\n{text}"));
        prop_assert_eq!(back, v, "emitted:\n{}", text);
    }

    #[test]
    fn parse_never_panics(src in "[ -~\n]{0,200}") {
        let _ = parse(&src);
    }

    #[test]
    fn parse_structured_never_panics(
        keys in prop::collection::vec("[a-z]{1,6}", 1..6),
        indents in prop::collection::vec(0usize..6, 1..6),
    ) {
        let mut src = String::new();
        for (k, ind) in keys.iter().zip(indents.iter()) {
            for _ in 0..*ind {
                src.push(' ');
            }
            src.push_str(k);
            src.push_str(":\n");
        }
        let _ = parse(&src);
    }
}
