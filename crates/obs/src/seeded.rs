//! Seeded schedules: the one home of the deterministic draws, stable
//! fingerprints, per-key ordinals and `key=value` spec grammar behind
//! every replayable plan in the workspace — the evaluation fault plan,
//! the noise plan, the fidelity ladder and the disk-fault plan.
//!
//! A seeded decision is a pure function of `(plan seed, salt, key
//! fingerprint, per-key ordinal)` — never wall time or cross-key call
//! order — so a schedule is identical at any thread count and across
//! process restarts. This crate sits below the eval, runtime and
//! spotlight crates, so all of them draw from the code here.
//!
//! A plan spec is a comma-separated list of `key=value` fields.
//! Whitespace around keys and values is ignored, empty fields are
//! skipped, and a key may appear at most once: a repeated key is an
//! error, never a silent override.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::str::FromStr;
use std::sync::{Mutex, PoisonError};

/// The SplitMix64 increment (the 64-bit golden ratio).
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer: a bijective avalanche mix.
#[inline]
pub fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One SplitMix64 output from state `x`: add [`GAMMA`], then
/// [`finalize`].
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    finalize(x.wrapping_add(GAMMA))
}

/// The top 53 bits of `bits` as an exactly representable uniform
/// double in `[0, 1)`.
#[inline]
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The raw 64-bit draw behind [`draw`], for schedules that need more
/// than a uniform (the disk-fault plan's bit position).
#[inline]
pub fn draw_bits(seed: u64, salt: u64, key: u64, ordinal: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt ^ key) ^ splitmix64(ordinal))
}

/// A uniform draw in `[0, 1)` that depends only on the plan seed, the
/// decision's salt, the key fingerprint and the per-key ordinal.
#[inline]
pub fn draw(seed: u64, salt: u64, key: u64, ordinal: u64) -> f64 {
    unit(draw_bits(seed, salt, key, ordinal))
}

/// FNV-1a, a *stable* [`Hasher`] for fingerprints. The std
/// `DefaultHasher` is explicitly unstable across releases; fingerprints
/// key seeded schedules and quarantine lists that must reproduce
/// bit-for-bit, so the hash function is pinned here.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The FNV-1a 64-bit offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Per-key call ordinals: the `n`-th [`Ordinals::next`] for a key
/// returns `n`. Calls for one key are sequential wherever a schedule
/// uses this, which keeps the ordinal — and hence the schedule —
/// thread-invariant.
#[derive(Debug, Default)]
pub struct Ordinals(Mutex<HashMap<u64, u64, BuildHasherDefault<KeyIsHash>>>);

/// The hasher of [`Ordinals`]' table. Its keys are fingerprints, already
/// mixed 64-bit hashes, so a key is its own hash.
#[derive(Default)]
struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    /// Not reached by `u64` keys; folds the bytes in for completeness.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

impl Ordinals {
    /// The ordinal of this call for `key`, advancing it.
    pub fn next(&self, key: u64) -> u64 {
        let mut ordinals = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = ordinals.entry(key).or_insert(0);
        let ordinal = *slot;
        *slot += 1;
        ordinal
    }
}

/// Error parsing or validating a plan spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// What was parsed, e.g. `"fault plan"`.
    pub plan: &'static str,
    /// A valid spec, quoted in the message.
    pub example: &'static str,
    /// Human-readable description of what was wrong.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}: {} (expected e.g. \"{}\")",
            self.plan, self.message, self.example
        )
    }
}

impl std::error::Error for PlanError {}

/// The `key=value` grammar of one plan: its name and an example spec,
/// which every error it reports quotes.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    /// What is parsed, e.g. `"fault plan"`.
    pub plan: &'static str,
    /// A valid spec.
    pub example: &'static str,
}

impl Grammar {
    /// A [`PlanError`] for this plan.
    pub fn error(&self, message: impl Into<String>) -> PlanError {
        PlanError {
            plan: self.plan,
            example: self.example,
            message: message.into(),
        }
    }

    /// Hands each trimmed `(key, value)` field of `spec` to `field`, in
    /// order. A field without `=` and a key seen before are refused
    /// before `field` sees them.
    ///
    /// # Errors
    ///
    /// The first malformed or repeated field, or the first error
    /// `field` returns.
    pub fn read(
        &self,
        spec: &str,
        mut field: impl FnMut(&str, &str) -> Result<(), PlanError>,
    ) -> Result<(), PlanError> {
        let mut seen = Vec::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| self.error(format!("expected key=value, got {part:?}")))?;
            let key = key.trim();
            if seen.contains(&key) {
                return Err(self.error(format!("field {key:?} given twice")));
            }
            seen.push(key);
            field(key, value.trim())?;
        }
        Ok(())
    }

    /// Parses `value` as the field `name`, described as `kind` (`"u64"`,
    /// `"float"`, ...) when it does not parse.
    ///
    /// # Errors
    ///
    /// `"<name> must be a <kind>, got <value>"`.
    pub fn value<T: FromStr>(&self, name: &str, kind: &str, value: &str) -> Result<T, PlanError> {
        value
            .parse()
            .map_err(|_| self.error(format!("{name} must be a {kind}, got {value:?}")))
    }

    /// The error for a field the plan does not have.
    pub fn unknown(&self, key: &str) -> PlanError {
        self.error(format!("unknown field {key:?}"))
    }

    /// Checks that every named value is a probability.
    ///
    /// # Errors
    ///
    /// The first value outside `[0, 1]` (or NaN).
    pub fn probabilities(&self, fields: &[(&str, f64)]) -> Result<(), PlanError> {
        match fields.iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
            Some((name, p)) => {
                Err(self.error(format!("{name} must be a probability in [0, 1], got {p}")))
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRAMMAR: Grammar = Grammar {
        plan: "test plan",
        example: "a=1,b=0.5",
    };

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The reference generator seeded with 0 outputs
        // splitmix64(0), splitmix64(GAMMA), ...
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(GAMMA), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(finalize(0), 0);
        assert_eq!(unit(u64::MAX), 1.0 - f64::EPSILON / 2.0);
        assert_eq!(unit(0), 0.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn ordinals_count_per_key() {
        let ordinals = Ordinals::default();
        assert_eq!(ordinals.next(7), 0);
        assert_eq!(ordinals.next(7), 1);
        assert_eq!(ordinals.next(8), 0);
        assert_eq!(ordinals.next(7), 2);
    }

    #[test]
    fn reader_trims_skips_empty_fields_and_keeps_order() {
        let mut fields = Vec::new();
        GRAMMAR
            .read(" a = 1 ,, b=x=y ,", |k, v| {
                fields.push((k.to_string(), v.to_string()));
                Ok(())
            })
            .unwrap();
        assert_eq!(
            fields,
            [("a".into(), "1".into()), ("b".into(), "x=y".into())]
        );
    }

    #[test]
    fn reader_refuses_missing_equals_and_repeated_keys() {
        let read = |spec: &str| GRAMMAR.read(spec, |_, _| Ok(())).unwrap_err();
        assert_eq!(
            read("a=1, b").to_string(),
            "invalid test plan: expected key=value, got \" b\" (expected e.g. \"a=1,b=0.5\")"
        );
        assert_eq!(read("a=1,b=2, a =3").message, "field \"a\" given twice");
    }

    #[test]
    fn values_and_probabilities_name_the_field() {
        assert_eq!(GRAMMAR.value::<u64>("a", "u64", "7"), Ok(7));
        assert_eq!(
            GRAMMAR.value::<f64>("b", "float", "x").unwrap_err().message,
            "b must be a float, got \"x\""
        );
        assert!(GRAMMAR.probabilities(&[("a", 0.0), ("b", 1.0)]).is_ok());
        assert_eq!(
            GRAMMAR
                .probabilities(&[("a", 0.5), ("b", f64::NAN)])
                .unwrap_err()
                .message,
            "b must be a probability in [0, 1], got NaN"
        );
    }
}
