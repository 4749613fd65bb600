//! Seeded, structure-aware mutation of `POST /v1/query` bodies. Valid
//! request bodies are damaged both as values (splice, duplicate, drop,
//! re-type, nest past the parser's depth limit) and as text (truncate,
//! splice, duplicate, escapes inserted at string boundaries, 400-digit
//! numbers), then fed to the two wire decoders, `Json::parse` and
//! `QueryRequest::from_json`. The contract: a typed error or a value, never
//! a panic. Whatever parses re-encodes to a document that parses back to the
//! same value, and whatever `from_json` accepts lowers to a query.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use joinmi_serve::json::Json;
use joinmi_serve::QueryRequest;

/// splitmix64: all the randomness a reproducible mutator needs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    /// A char boundary of `text`, uniform over byte offsets rounded up.
    fn boundary(&mut self, text: &str) -> usize {
        let mut at = self.below(text.len() + 1);
        while !text.is_char_boundary(at) {
            at += 1;
        }
        at
    }
}

/// Valid bodies: integer and float targets, point and interval policy,
/// non-ASCII keys, escapes, a 64-bit seed, every optional field.
fn corpus() -> Vec<String> {
    let int_rows: Vec<String> = (0..24)
        .map(|i| format!("[\"z{:05}\", {}]", 10_000 + i * 7, (i * 37) % 11))
        .collect();
    let float_rows: Vec<String> = (0..24)
        .map(|i| format!("[\"clé-{i}\\u00e9🦀\", {:?}]", f64::from(i) * 0.25 - 1.5))
        .collect();
    vec![
        format!(
            r#"{{"key_column": "zipcode", "target_column": "num_trips",
                "rows": [{}], "top_k": 10, "min_join_size": 10,
                "sketch_kind": "TUPSK", "sketch_size": 256, "sketch_seed": 3}}"#,
            int_rows.join(", ")
        ),
        format!(
            r#"{{"key_column": "k\"ey\\", "target_column": "t\n",
                "rows": [{}], "top_k": 5, "min_join_size": 2, "min_key_overlap": 1,
                "sketch_size": 64, "sketch_seed": -9223372036854775808, "k": 3,
                "allow_partial": true, "confidence": 0.95}}"#,
            float_rows.join(", ")
        ),
    ]
}

/// Every node of a value, counted in depth-first order.
fn node_count(v: &Json) -> usize {
    1 + match v {
        Json::Arr(items) => items.iter().map(node_count).sum(),
        Json::Obj(map) => map.values().map(node_count).sum(),
        _ => 0,
    }
}

/// The `n`-th node in depth-first order.
fn nth_node(v: &mut Json, n: usize) -> &mut Json {
    fn walk<'a>(v: &'a mut Json, n: &mut usize) -> Option<&'a mut Json> {
        if *n == 0 {
            return Some(v);
        }
        *n -= 1;
        match v {
            Json::Arr(items) => items.iter_mut().find_map(|c| walk(c, n)),
            Json::Obj(map) => map.values_mut().find_map(|c| walk(c, n)),
            _ => None,
        }
    }
    walk(v, &mut { n }).expect("n is below the node count")
}

fn random_node<'a>(v: &'a mut Json, rng: &mut Rng) -> &'a mut Json {
    let n = rng.below(node_count(v));
    nth_node(v, n)
}

/// Values of every type, with the edges the decoders branch on.
fn replacement(rng: &mut Rng) -> Json {
    rng.pick(&[
        Json::Null,
        Json::Bool(true),
        Json::Int(0),
        Json::Int(-1),
        Json::Int(i64::MAX),
        Json::Int(i64::MIN),
        Json::Float(0.5),
        Json::Float(-0.0),
        Json::Float(1e308),
        Json::Str(String::new()),
        Json::Str("TUPSK".into()),
        Json::Str("zipcode".into()),
        Json::Arr(Vec::new()),
        Json::Arr(vec![Json::Str("k".into()), Json::Float(1.0)]),
        Json::Obj(Default::default()),
    ])
}

/// Damages a value in place and says how.
fn mutate_value(doc: &mut Json, donor: &Json, rng: &mut Rng) -> String {
    match rng.below(5) {
        0 => {
            let mut donor = donor.clone();
            let graft = random_node(&mut donor, rng).clone();
            *random_node(doc, rng) = graft;
            "splice a donor node".into()
        }
        1 => match random_node(doc, rng) {
            Json::Arr(items) if !items.is_empty() => {
                let i = rng.below(items.len());
                let copy = items[i].clone();
                items.insert(i, copy);
                format!("duplicate element {i}")
            }
            Json::Obj(map) if !map.is_empty() => {
                let keys: Vec<String> = map.keys().cloned().collect();
                let (from, to) = (rng.pick(&keys), rng.pick(&keys));
                let value = map[&from].clone();
                map.insert(to.clone(), value);
                format!("copy field {from} over {to}")
            }
            _ => "nothing to duplicate".into(),
        },
        2 => match random_node(doc, rng) {
            Json::Arr(items) if !items.is_empty() => {
                let i = rng.below(items.len());
                items.remove(i);
                format!("drop element {i}")
            }
            Json::Obj(map) if !map.is_empty() => {
                let keys: Vec<String> = map.keys().cloned().collect();
                let key = rng.pick(&keys);
                map.remove(&key);
                format!("drop field {key}")
            }
            _ => "nothing to drop".into(),
        },
        3 => {
            let new = replacement(rng);
            let what = format!("re-type a node to {}", new.encode());
            *random_node(doc, rng) = new;
            what
        }
        _ => {
            // The parser's limit is 64 levels.
            let levels = 60 + rng.below(20);
            let node = random_node(doc, rng);
            for _ in 0..levels {
                *node = Json::Arr(vec![std::mem::replace(node, Json::Null)]);
            }
            format!("nest a node {levels} arrays deeper")
        }
    }
}

/// What goes in after a quote: escapes good and bad, a lone backslash, a
/// `\u` whose digits start with a multi-byte character, surrogate halves.
const INSERTS: [&str; 15] = [
    "\\n",
    "\\\"",
    "\\u00e9",
    "\\ud83e\\udd80",
    "\\",
    "\\ué12",
    "\\u€é",
    "\\u123é",
    "\\u12",
    "\\ud83e",
    "\\udd80",
    "\\ud83e\\u0041",
    "\\q",
    "\u{1}",
    "é🦀",
];

/// Damages the text of a document and says how.
fn mutate_text(text: &mut String, donor: &str, rng: &mut Rng) -> String {
    match rng.below(5) {
        0 => {
            let at = rng.boundary(text);
            text.truncate(at);
            format!("truncate at {at}")
        }
        1 => {
            let (a, b) = (rng.boundary(donor), rng.boundary(donor));
            let graft = &donor[a.min(b)..a.max(b)];
            let (c, d) = (rng.boundary(text), rng.boundary(text));
            text.replace_range(c.min(d)..c.max(d), graft);
            format!("splice donor bytes {a}..{b} over {c}..{d}")
        }
        2 => {
            let (a, b) = (rng.boundary(text), rng.boundary(text));
            let copy = text[a.min(b)..a.max(b)].to_owned();
            text.insert_str(a.max(b), &copy);
            format!("duplicate bytes {a}..{b}")
        }
        3 => {
            let quotes: Vec<usize> = text.match_indices('"').map(|(i, _)| i + 1).collect();
            let Some(at) = (!quotes.is_empty()).then(|| rng.pick(&quotes)) else {
                return "no quote to escape after".into();
            };
            let insert = rng.pick(&INSERTS);
            text.insert_str(at, insert);
            format!("insert {insert:?} at {at}")
        }
        _ => {
            let digits: Vec<usize> = text
                .char_indices()
                .filter(|&(i, c)| {
                    c.is_ascii_digit() && !text[..i].ends_with(|p: char| p.is_ascii_digit())
                })
                .map(|(i, _)| i)
                .collect();
            let Some(at) = (!digits.is_empty()).then(|| rng.pick(&digits)) else {
                return "no number to lengthen".into();
            };
            let end = text[at..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(text.len(), |n| at + n);
            let long = rng.pick(&["9", "1", "0"]).repeat(400);
            let number = rng.pick(&[
                long.clone(),
                format!("0.{long}"),
                format!("1e{long}"),
                format!("{long}.5e-400"),
            ]);
            text.replace_range(at..end, &number);
            format!("replace the number at {at} with {} bytes", number.len())
        }
    }
}

#[derive(Default)]
struct Outcomes {
    not_json: usize,
    bad_request: usize,
    accepted: usize,
}

/// The contract for one (possibly damaged) body.
fn check(body: &str, outcomes: &mut Outcomes) {
    let parsed = Json::parse(body);
    if let Ok(value) = &parsed {
        assert_eq!(
            Json::parse(&value.encode()).as_ref(),
            Ok(value),
            "re-encoding is not a round trip"
        );
    }
    match QueryRequest::from_json(body) {
        Err(_) if parsed.is_err() => outcomes.not_json += 1,
        Err(_) => outcomes.bad_request += 1,
        Ok(request) => {
            assert!(
                parsed.is_ok(),
                "from_json accepted what Json::parse refused"
            );
            let _ = request.fingerprint();
            let _ = request.to_query();
            outcomes.accepted += 1;
        }
    }
}

#[test]
fn mutated_query_bodies_are_typed_errors_or_values_never_panics() {
    const CASES: u64 = 20_000;
    let corpus = corpus();
    let values: Vec<Json> = corpus.iter().map(|b| Json::parse(b).unwrap()).collect();
    let mut outcomes = Outcomes::default();
    for body in &corpus {
        QueryRequest::from_json(body).expect("the corpus is valid");
    }
    let started = Instant::now();
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let base = rng.below(corpus.len());
        let donor = (base + 1) % corpus.len();
        let mut applied = Vec::new();
        let mut value = values[base].clone();
        for _ in 0..rng.below(3) {
            applied.push(mutate_value(&mut value, &values[donor], &mut rng));
        }
        let mut text = value.encode();
        for _ in 0..usize::from(applied.is_empty()) + rng.below(2) {
            applied.push(mutate_text(&mut text, &corpus[donor], &mut rng));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| check(&text, &mut outcomes)));
        assert!(
            outcome.is_ok(),
            "seed {seed} broke the contract after: {applied:?}"
        );
    }
    eprintln!(
        "{CASES} mutated bodies in {:?}: {} not JSON, {} bad requests, {} accepted",
        started.elapsed(),
        outcomes.not_json,
        outcomes.bad_request,
        outcomes.accepted
    );
    // Each decoder both accepted and refused some of the damage.
    for (what, count) in [
        ("not JSON", outcomes.not_json),
        ("bad request", outcomes.bad_request),
        ("accepted", outcomes.accepted),
    ] {
        assert!(
            count > CASES as usize / 50,
            "only {count} cases were {what}"
        );
    }
}
