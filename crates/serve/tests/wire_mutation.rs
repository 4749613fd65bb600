//! Seeded, structure-aware mutation of `POST /v1/query` bodies. Valid
//! request bodies are damaged both as values (splice, duplicate, drop,
//! re-type, nest past the parser's depth limit) and as text (truncate,
//! splice, duplicate, escapes inserted at string boundaries, 400-digit
//! numbers), then fed to the two wire decoders, `Json::parse` and
//! `QueryRequest::from_json`. The contract: a typed error or a value, never
//! a panic. Whatever parses re-encodes to a document that parses back to the
//! same value, and whatever `from_json` accepts lowers to a query.
//!
//! The same bodies, wrapped in valid HTTP requests, are damaged as bytes
//! (truncated, re-declared lengths, dropped, duplicated and injected head
//! lines, bad request lines, stray bytes) and fed to `http::read_request` on
//! byte slices, without a socket: a request or a typed 4xx/5xx, never a
//! panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use joinmi_serve::http::read_request;
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

/// A valid `POST /v1/query` request around `body`.
fn http_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/query?explain=1 HTTP/1.1\r\nHost: 127.0.0.1\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The head of a request as its lines, terminators kept, and the rest.
fn split_head(bytes: &[u8]) -> (Vec<Vec<u8>>, Vec<u8>) {
    let end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(bytes.len(), |p| p + 4);
    let lines = bytes[..end]
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    (lines, bytes[end..].to_vec())
}

/// Values a `Content-Length` header may be re-declared with.
const LENGTHS: [&str; 12] = [
    "0",
    "1",
    "67108864",
    "67108865",
    "-1",
    "1e3",
    " 12 ",
    "",
    "0x10",
    "+5",
    "18446744073709551616",
    "99999999999999999999999999",
];

/// Head lines a mutation may insert.
fn injected_line(rng: &mut Rng) -> Vec<u8> {
    let long = format!("X-Long: {}\r\n", "a".repeat(17_000));
    let lines: [&[u8]; 8] = [
        b"Transfer-Encoding: chunked\r\n",
        b"content-length:  3\r\n",
        b"Content-Length: 100000\r\n",
        b"no colon in this line\r\n",
        b"X-Bytes: \xff\xfe\r\n",
        b"\r\n",
        b"\n",
        long.as_bytes(),
    ];
    rng.pick(&lines).to_vec()
}

/// Damages the bytes of a request and says how.
fn mutate_request(bytes: &mut Vec<u8>, rng: &mut Rng) -> String {
    if bytes.is_empty() {
        return "nothing left to damage".into();
    }
    let (mut lines, body) = split_head(bytes);
    let what = match rng.below(7) {
        0 => {
            let at = rng.below(bytes.len() + 1);
            bytes.truncate(at);
            return format!("truncate at {at}");
        }
        1 => {
            let delta = rng.below(9) as i64 - 4;
            let declared = (body.len() as i64 + delta).max(0).to_string();
            let odd = rng.pick(&LENGTHS);
            let value = rng.pick(&[declared.as_str(), odd]).to_owned();
            for line in &mut lines {
                if line.starts_with(b"Content-Length:") {
                    *line = format!("Content-Length: {value}\r\n").into_bytes();
                }
            }
            format!("declare Content-Length {value:?}")
        }
        2 => {
            let i = rng.below(lines.len());
            if rng.below(2) == 0 {
                lines.remove(i);
                format!("drop head line {i}")
            } else {
                lines.insert(i, lines[i].clone());
                format!("duplicate head line {i}")
            }
        }
        3 => {
            let i = rng.below(lines.len() + 1).max(1).min(lines.len());
            let line = injected_line(rng);
            let what = format!("inject a {}-byte head line at {i}", line.len());
            lines.insert(i, line);
            what
        }
        4 => {
            let request_line = rng.pick(&[
                String::new(),
                "GET\r\n".into(),
                "GET /\r\n".into(),
                "GET / HTTP/2.0\r\n".into(),
                "post /v1/query HTTP/1.0\r\n".into(),
                format!("GET /{} HTTP/1.1\r\n", "a".repeat(20_000)),
            ]);
            lines[0] = request_line.into_bytes();
            "replace the request line".into()
        }
        5 => {
            let at = rng.below(bytes.len());
            let byte = rng.pick(&[0x00, b'\r', b'\n', b':', 0x80, 0xc3, 0xff]);
            bytes[at] = byte;
            return format!("set byte {at} to {byte:#04x}");
        }
        _ => {
            for line in &mut lines {
                line.retain(|&b| b != b'\r');
            }
            "bare LF line ends".into()
        }
    };
    *bytes = lines.concat();
    bytes.extend_from_slice(&body);
    what
}

#[derive(Default)]
struct RequestOutcomes {
    requests: usize,
    /// Refusals by status: 400, 413, 431, 501.
    refused: [usize; 4],
    bodies: Outcomes,
}

/// The contract for one (possibly damaged) request.
fn check_request(bytes: &[u8], outcomes: &mut RequestOutcomes) {
    match read_request(&mut &bytes[..]) {
        Ok(request) => {
            assert!(
                request.body.len() <= bytes.len(),
                "a body longer than the input"
            );
            outcomes.requests += 1;
            check(&request.body, &mut outcomes.bodies);
        }
        Err(e) => {
            let slot = [400, 413, 431, 501].iter().position(|&s| s == e.status);
            let slot =
                slot.unwrap_or_else(|| panic!("untyped refusal {}: {}", e.status, e.message));
            outcomes.refused[slot] += 1;
        }
    }
}

#[test]
fn mutated_http_requests_are_typed_errors_or_requests_never_panics() {
    const CASES: u64 = 10_000;
    let requests: Vec<Vec<u8>> = corpus().iter().map(|b| http_request(b)).collect();
    for bytes in &requests {
        let request = read_request(&mut &bytes[..]).expect("the corpus is valid");
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("POST", "/v1/query")
        );
    }
    let mut outcomes = RequestOutcomes::default();
    let started = Instant::now();
    for seed in 0..CASES {
        let mut rng = Rng(seed ^ 0x4854_5450);
        let mut bytes = rng.pick(&requests);
        let applied: Vec<String> = (0..1 + rng.below(3))
            .map(|_| mutate_request(&mut bytes, &mut rng))
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| check_request(&bytes, &mut outcomes)));
        assert!(
            outcome.is_ok(),
            "seed {seed} broke the contract after: {applied:?}"
        );
    }
    eprintln!(
        "{CASES} mutated requests in {:?}: {} requests ({} bodies accepted), \
         refused 400/413/431/501: {:?}",
        started.elapsed(),
        outcomes.requests,
        outcomes.bodies.accepted,
        outcomes.refused
    );
    assert!(
        outcomes.requests > CASES as usize / 50,
        "{} requests",
        outcomes.requests
    );
    for (status, count) in [400, 413, 431, 501].iter().zip(outcomes.refused) {
        assert!(count > 0, "no mutation was refused with {status}");
    }
}

#[test]
fn a_body_shorter_than_its_declared_length_is_a_typed_400() {
    // 64 MiB declared (the largest accepted), 10 bytes sent, then EOF.
    let mut bytes = b"POST /v1/query HTTP/1.1\r\nContent-Length: 67108864\r\n\r\n".to_vec();
    bytes.extend_from_slice(b"{\"rows\": [");
    let e = read_request(&mut &bytes[..]).unwrap_err();
    assert_eq!(e.status, 400, "{}", e.message);
    assert!(e.message.contains("10 of 67108864 bytes"), "{}", e.message);
}
