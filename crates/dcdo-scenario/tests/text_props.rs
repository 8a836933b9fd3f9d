//! Untrusted `.scn` text never panics the loader or the validator.
//!
//! Every declared scenario's text is mutated by number, word and line
//! substitutions; `Scenario::from_text` followed by `validate` must return
//! a typed result for each mutant. Mutants are parsed and validated only,
//! never run.

use dcdo_scenario::registry::declared;
use dcdo_scenario::Scenario;
use proptest::prelude::*;

/// Boundary numbers: zero, the edges of `u32`/`u64`/`i64` (the top of
/// `u32` densely, since counts get small offsets added), node-limit edges,
/// and values that overflow a nanosecond clock.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "65535",
    "65536",
    "4294967292",
    "4294967293",
    "4294967294",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "1e300",
    "0.0000000001",
    "nan",
    "inf",
];

/// Words no declaration uses, added to the declared texts' own words.
const JUNK_WORDS: &[&str] = &["", "x", "=", "@", "+", "true", "NaN", "-inf"];

/// Byte ranges of the maximal runs of bytes matching `class` in `text`.
fn runs(text: &str, class: fn(u8) -> bool) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if class(bytes[i]) {
            let start = i;
            while i < bytes.len() && class(bytes[i]) {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

fn is_digit(b: u8) -> bool {
    b.is_ascii_digit()
}

fn is_word(b: u8) -> bool {
    b.is_ascii_lowercase() || b == b'_'
}

/// Every word of every declared text, plus the junk words.
fn vocabulary() -> Vec<String> {
    let mut words: Vec<String> = JUNK_WORDS.iter().map(|w| w.to_string()).collect();
    for (_, text) in declared() {
        for (start, end) in runs(text, is_word) {
            words.push(text[start..end].to_string());
        }
    }
    words.sort();
    words.dedup();
    words
}

/// Applies one mutation to `text`. `kind` picks number (0 or 1), word (2)
/// or line (3) substitution; `at` and `pick` choose the site and the
/// replacement.
fn mutate(text: &str, kind: u8, at: u64, pick: u64, vocabulary: &[String]) -> String {
    let splice = |sites: Vec<(usize, usize)>, with: &str| {
        if sites.is_empty() {
            return text.to_string();
        }
        let (start, end) = sites[at as usize % sites.len()];
        format!("{}{}{}", &text[..start], with, &text[end..])
    };
    match kind {
        0 | 1 => splice(runs(text, is_digit), NUMBERS[pick as usize % NUMBERS.len()]),
        2 => splice(
            runs(text, is_word),
            &vocabulary[pick as usize % vocabulary.len()],
        ),
        _ => {
            // Replace a line with a line of any declared text, or drop it.
            let mut lines: Vec<&str> = text.lines().collect();
            let donors: Vec<&str> = declared().iter().flat_map(|(_, t)| t.lines()).collect();
            let line = at as usize % lines.len().max(1);
            let with = pick as usize % (donors.len() + 1);
            if line < lines.len() {
                if with == donors.len() {
                    lines.remove(line);
                } else {
                    lines[line] = donors[with];
                }
            }
            lines.join("\n")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn mutated_declarations_load_and_validate_without_panicking(
        which in 0usize..declared().len(),
        mutations in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..4),
    ) {
        let vocabulary = vocabulary();
        let mut text = declared()[which].1.to_string();
        for &(kind, at, pick) in &mutations {
            text = mutate(&text, kind, at, pick, &vocabulary);
        }
        let outcome = std::panic::catch_unwind(|| {
            Scenario::from_text(&text).and_then(|scenario| scenario.validate())
        });
        prop_assert!(outcome.is_ok(), "panicked on mutant:\n{}", text);
    }
}
