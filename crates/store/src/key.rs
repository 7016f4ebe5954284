//! Content-addressed cache keys.
//!
//! A [`CacheKey`] is the 128-bit identity of one unit of cacheable work:
//! the stable hash of a *canonical* JSON document enumerating everything
//! that determines the result bytes — the scenario spec or property and
//! full parameter assignment, plus the execution ingredients that
//! `harness::cache::execution_key_doc` lists once for every engine
//! (machine model, message shape, init/finalize costs, analyzer version
//! and configuration, trace format). Anything that only changes *how* a
//! result is computed (worker count, scheduler carrier, buffer pooling,
//! observability) must stay out of the document: two runs that provably
//! produce the same bytes must map to the same key, or the cache never
//! hits.
//!
//! Canonicalization rides on [`Json::render`]: object members render in
//! sorted key order with exact integers and shortest-round-trip floats,
//! so two documents with the same content always produce the same bytes,
//! regardless of insertion order or platform.

use crate::hash::xxh64;
use crate::Json;
use std::fmt;

/// Seed for the second key lane (the golden-ratio constant); lane one
/// uses seed 0. Two independently-seeded XXH64 lanes give 128 bits.
const LANE2_SEED: u64 = 0x9E3779B97F4A7C15;

/// The 128-bit content address of one cacheable result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// Key of raw bytes (already-canonical content).
    pub fn of_bytes(data: &[u8]) -> CacheKey {
        CacheKey {
            hi: xxh64(data, 0),
            lo: xxh64(data, LANE2_SEED),
        }
    }

    /// Key of a JSON ingredients document, hashed over its canonical
    /// rendering.
    pub fn of_value(value: &Json) -> CacheKey {
        CacheKey::of_bytes(value.render().as_bytes())
    }

    /// The 32-character lowercase hex spelling (an entry's file name in
    /// the store's object tree, under a shard directory named by its
    /// first two characters).
    pub fn hex(&self) -> String {
        self.to_string()
    }

    /// The [`CacheKey::hex`] spelling's bytes, without an allocation.
    pub(crate) fn hex_digits(&self) -> [u8; 32] {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut digits = [0; 32];
        let bits = (u128::from(self.hi) << 64) | u128::from(self.lo);
        for (i, digit) in digits.iter_mut().enumerate() {
            *digit = HEX[(bits >> (124 - 4 * i)) as usize & 0xf];
        }
        digits
    }

    /// Parse the [`CacheKey::hex`] spelling back: exactly 32 lowercase
    /// hex digits, so that a key has one spelling.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        let lowercase_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
        if s.len() != 32 || !s.bytes().all(lowercase_hex) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey { hi, lo })
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = self.hex_digits();
        f.write_str(std::str::from_utf8(&digits).expect("hex digits are ASCII"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let k = CacheKey::of_bytes(b"some ingredients");
        assert_eq!(k.hex().len(), 32);
        assert_eq!(CacheKey::from_hex(&k.hex()), Some(k));
        assert!(CacheKey::from_hex("xyz").is_none());
        assert!(CacheKey::from_hex(&"0".repeat(31)).is_none());
        assert_eq!(
            CacheKey::from_hex("0123456789abcdef0011223344556677").map(|k| k.hex()),
            Some("0123456789abcdef0011223344556677".to_owned())
        );
    }

    /// A key has one spelling: what [`CacheKey::hex`] writes.
    #[test]
    fn from_hex_accepts_only_the_lowercase_spelling() {
        let hex = CacheKey::of_bytes(b"spelling").hex();
        assert!(hex.bytes().any(|b| b.is_ascii_alphabetic()), "{hex}");
        for bad in [
            hex.to_uppercase(),
            format!("+{}", &hex[1..]),
            format!("{}+{}", &hex[..16], &hex[17..]),
            hex[1..].to_owned(),
            format!("{hex}0"),
            format!(" {}", &hex[1..]),
        ] {
            assert_eq!(CacheKey::from_hex(&bad), None, "{bad}");
        }
    }

    #[test]
    fn value_keys_are_insertion_order_independent() {
        // Same content, different construction order: one key.
        let a = Json::obj().with("alpha", 1u64).with("beta", "x");
        let b = Json::obj().with("beta", "x").with("alpha", 1u64);
        assert_eq!(CacheKey::of_value(&a), CacheKey::of_value(&b));
    }

    #[test]
    fn any_field_change_changes_the_key() {
        let base = Json::obj()
            .with("property", "late_sender")
            .with("nprocs", 8u64)
            .with("threshold", 0.005f64);
        let k = CacheKey::of_value(&base);
        for variant in [
            base.clone().with("property", "late_receiver"),
            base.clone().with("nprocs", 4u64),
            base.clone().with("threshold", 0.01f64),
            Json::obj()
                .with("property", "late_sender")
                .with("nprocs", 8u64),
        ] {
            assert_ne!(k, CacheKey::of_value(&variant), "{}", variant.render());
        }
    }

    #[test]
    fn display_matches_hex() {
        let k = CacheKey::of_bytes(b"k");
        assert_eq!(k.to_string(), k.hex());
    }
}
