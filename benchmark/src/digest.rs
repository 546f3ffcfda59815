//! Output digests: a simulation repeat is correct when its results hash to
//! the same value on every repeat and, for seed 42, to the value pinned in
//! `expected.json`.

use crate::outcome::Outcome;
use pmstackd::json::{self, Value};

/// The digests pinned for [`PINNED_SEED`], compiled in so a checkout
/// without the file cannot run unchecked.
pub const EXPECTED: &str = include_str!("../expected.json");
pub const PINNED_SEED: u64 = 42;

/// FNV-1a over bytes, as 16 hex digits.
pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a result through its `Debug` form, which prints every float
/// with the digits that round-trip its bits.
pub fn of_debug(value: &impl std::fmt::Debug) -> String {
    fnv(format!("{value:?}").bytes())
}

/// Check a repeat's digest against the first repeat's and, at the pinned
/// seed, against `expected` (the contents of `expected.json`).
pub fn check(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
    digest: &str,
    first: &str,
    expected: &str,
) {
    out.check(digest == first, || {
        format!("{workload}: repeat digest {digest} differs from the first repeat's {first}")
    });
    if seed != PINNED_SEED {
        return;
    }
    let pinned = json::parse(expected.as_bytes())
        .ok()
        .and_then(|v| v.get(workload).and_then(Value::as_str).map(str::to_string));
    out.check(pinned.as_deref() == Some(digest), || {
        format!("{workload}: digest {digest} is not the pinned {pinned:?} for seed {seed}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    #[test]
    fn shipped_pins_parse() {
        let v = json::parse(EXPECTED.as_bytes()).unwrap();
        for w in ["sweep_fullstack", "fleet_step", "facility_campaign"] {
            assert_eq!(
                v.get(w).and_then(Value::as_str).map(str::len),
                Some(16),
                "{w}"
            );
        }
    }

    #[test]
    fn a_wrong_pinned_digest_fails_the_run() {
        let mut out = Outcome::new(END_TO_END);
        let right = r#"{"fleet_step":"00000000000000aa"}"#;
        check(
            &mut out,
            "fleet_step",
            PINNED_SEED,
            "00000000000000aa",
            "00000000000000aa",
            right,
        );
        assert!(out.correct());
        assert_eq!(crate::exit_code(&out), 0);

        let wrong = r#"{"fleet_step":"00000000000000bb"}"#;
        check(
            &mut out,
            "fleet_step",
            PINNED_SEED,
            "00000000000000aa",
            "00000000000000aa",
            wrong,
        );
        assert!(!out.correct());
        assert_ne!(crate::exit_code(&out), 0);

        // Another seed has no pin, but repeats must still agree.
        let mut other = Outcome::new(END_TO_END);
        check(
            &mut other,
            "fleet_step",
            7,
            "00000000000000aa",
            "00000000000000aa",
            wrong,
        );
        assert!(other.correct());
        check(
            &mut other,
            "fleet_step",
            7,
            "00000000000000aa",
            "00000000000000cc",
            wrong,
        );
        assert!(!other.correct());
    }
}
