//! Randomized tests of the store's JSON parser and writers: random
//! documents round-trip through both written forms, and arbitrary,
//! mutated or truncated input is rejected with an error, never a
//! panic.
//!
//! Cases are generated with `desim`'s deterministic RNG (seeded,
//! reproducible), so the tests need no registry dependency.

use dbshare_expstore::Json;
use desim::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 512;

/// Characters that exercise every branch of the escaper: quotes,
/// backslashes, named and `\u` control escapes, and multi-byte UTF-8.
const CHARS: &str = "aZ0 \"\\/\n\r\t\u{0}\u{1}\u{1f}\u{7f}é€\u{1d11e}{],:";

fn string(rng: &mut Rng) -> String {
    let chars: Vec<char> = CHARS.chars().collect();
    (0..rng.below(12))
        .map(|_| chars[rng.below(chars.len() as u64) as usize])
        .collect()
}

/// A finite number: small integers, decimal fractions, and arbitrary
/// bit patterns across the whole exponent range.
fn number(rng: &mut Rng) -> f64 {
    match rng.below(3) {
        0 => rng.below(1_000_000) as f64 - 500_000.0,
        1 => rng.uniform(-1e3, 1e3),
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn value(rng: &mut Rng, depth: usize) -> Json {
    let leaf = depth == 0 || rng.chance(0.4);
    match rng.below(if leaf { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Num(number(rng)),
        3 => Json::Str(string(rng)),
        4 => Json::Arr((0..rng.below(5)).map(|_| value(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (string(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Parses `text`, failing the test if the parser panics.
fn parse_without_panic(text: &str) -> Result<Json, dbshare_expstore::ParseError> {
    catch_unwind(AssertUnwindSafe(|| Json::parse(text)))
        .unwrap_or_else(|_| panic!("parser panicked on {text:?}"))
}

#[test]
fn random_documents_round_trip_through_both_forms() {
    let mut rng = Rng::seed_from_u64(0x15_0001);
    for case in 0..CASES {
        let doc = value(&mut rng, 5);
        for text in [doc.render(), doc.render_line()] {
            let back =
                Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} in {text:?}"));
            assert_eq!(back, doc, "case {case}: {text:?}");
            // Both forms re-render byte-identically after a parse.
            assert_eq!(back.render(), doc.render(), "case {case}");
            assert_eq!(back.render_line(), doc.render_line(), "case {case}");
        }
    }
}

#[test]
fn truncated_prefixes_of_valid_documents_never_panic() {
    let mut rng = Rng::seed_from_u64(0x15_0002);
    for _ in 0..CASES / 4 {
        let doc = value(&mut rng, 4);
        for text in [doc.render(), doc.render_line()] {
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                // A strict prefix of a container or string can never
                // be a complete document; a number's prefix may be.
                let parsed = parse_without_panic(&text[..cut]);
                if matches!(doc, Json::Arr(_) | Json::Obj(_) | Json::Str(_)) {
                    assert!(parsed.is_err(), "accepted prefix {:?}", &text[..cut]);
                }
            }
        }
    }
}

#[test]
fn arbitrary_bytes_and_mutated_documents_never_panic() {
    let mut rng = Rng::seed_from_u64(0x15_0003);
    // Byte soup weighted towards JSON's own punctuation, so the parser
    // gets past its first byte.
    let alphabet = b"{}[]\":,\\u0123456789abcdefntrl-+.eE \n\x00\xff\xc3\xa9";
    for _ in 0..CASES * 4 {
        let len = rng.below(64) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.chance(0.8) {
                    alphabet[rng.below(alphabet.len() as u64) as usize]
                } else {
                    rng.below(256) as u8
                }
            })
            .collect();
        let _ = parse_without_panic(&String::from_utf8_lossy(&bytes));
    }
    for _ in 0..CASES {
        let mut bytes = value(&mut rng, 4).render_line().into_bytes();
        for _ in 0..=rng.below(3) {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = alphabet[rng.below(alphabet.len() as u64) as usize];
        }
        let _ = parse_without_panic(&String::from_utf8_lossy(&bytes));
    }
}
