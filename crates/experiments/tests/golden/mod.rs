//! The golden files (`grid.json`, `hetero.json`, tracked beside this
//! module) and the one comparison both golden suites use.
//!
//! A golden that is absent and a golden that differs are two different
//! failures with two different messages: the first means the checkout is
//! broken (the file must be tracked in git), the second that the numbers
//! moved. Neither is ever skipped. Intentional changes re-bless with
//! `GOLDEN_BLESS=1 cargo test -p pmstack-experiments --test <suite>`.

/// `tests/golden/<file>` inside this crate.
pub fn path(file: &str) -> String {
    format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Compare `actual` with the tracked file at `path` (or write it under
/// `GOLDEN_BLESS`), line by line so a divergence names its line.
pub fn check(path: &str, actual: &str) {
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(path, actual).expect("bless golden file");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "GOLDEN MISSING: {path} is not in this checkout ({e}) — it must be tracked in \
             git (bless with GOLDEN_BLESS=1 only for an intended change)"
        )
    });
    if expected != actual {
        for (line, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(e, a, "GOLDEN DIVERGED at {path}:{}", line + 1);
        }
        panic!(
            "GOLDEN DIVERGED: {path} line count changed: expected {}, got {}",
            expected.lines().count(),
            actual.lines().count()
        );
    }
}
