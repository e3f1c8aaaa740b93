//! Deterministic pseudo-word generation.
//!
//! The synthetic vocabulary needs term strings that (a) survive the text
//! pipeline unchanged — lowercase ASCII letters only, so tokenization is
//! an exact round trip — and (b) are pairwise distinct. Words are built
//! from consonant-vowel syllables seeded by the term index, giving
//! pronounceable, stable names like `kuvasora`.

/// Consonants used for syllable construction.
const CONSONANTS: &[u8] = b"bdfgklmnprstvz";
/// Vowels used for syllable construction.
const VOWELS: &[u8] = b"aeiou";

/// Generates the `i`-th pseudo-word.
///
/// Deterministic and injective: every distinct `i` yields a distinct
/// word because the trailing syllables encode `i` in mixed radix, and a
/// disambiguating suffix is appended for indices beyond the radix range.
pub fn pseudo_word(i: u64) -> String {
    let mut word = String::new();
    let mut n = i;
    // Always emit at least three syllables so words are >= 6 chars and
    // never collide with real stopwords or each other's prefixes.
    for _ in 0..3 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the remainder is below CONSONANTS.len()"
        )]
        let c = CONSONANTS[(n % CONSONANTS.len() as u64) as usize];
        n /= CONSONANTS.len() as u64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the remainder is below VOWELS.len()"
        )]
        let v = VOWELS[(n % VOWELS.len() as u64) as usize];
        n /= VOWELS.len() as u64;
        word.push(c as char);
        word.push(v as char);
    }
    if n > 0 {
        // Mixed-radix overflow: encode the remainder in base-26 letters.
        while n > 0 {
            let digit = u8::try_from(n % 26).expect("a mod-26 remainder always fits in u8");
            word.push((b'a' + digit) as char);
            n /= 26;
        }
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn words_are_lowercase_ascii() {
        for i in 0..1000 {
            let w = pseudo_word(i);
            assert!(w.chars().all(|c| c.is_ascii_lowercase()), "{w}");
            assert!(w.len() >= 6);
        }
    }

    #[test]
    fn words_are_injective() {
        let mut seen = HashSet::new();
        for i in 0..200_000u64 {
            assert!(seen.insert(pseudo_word(i)), "collision at {i}");
        }
    }

    #[test]
    fn words_survive_tokenization() {
        for i in [0u64, 17, 9999, 123_456] {
            let w = pseudo_word(i);
            assert_eq!(mp_text::tokenize(&w), vec![w.clone()]);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(pseudo_word(42), pseudo_word(42));
    }
}
