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
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parse the [`CacheKey::hex`] spelling back.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey { hi, lo })
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
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
