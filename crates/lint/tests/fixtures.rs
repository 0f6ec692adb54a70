//! Fixture tests: the lexer torture file and the seeded bad workspace.
//!
//! `tests/fixtures/lexer/tricky.rs` packs raw strings, nested block
//! comments, char literals, and a `#[cfg(test)]` module around one real
//! violation; these tests pin down that nothing inside a string or
//! comment is ever flagged and nothing after one is ever missed.

use dropback_lint::lexer::{tokenize, TokenKind};
use dropback_lint::{analyze_source, check_workspace, Allowlist};
use std::path::Path;

const TRICKY: &str = include_str!("fixtures/lexer/tricky.rs");

#[test]
fn raw_strings_lex_as_single_tokens() {
    let tokens = tokenize(TRICKY);
    let raws: Vec<_> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::RawStr)
        .collect();
    assert_eq!(raws.len(), 2, "RAW and RAW2");
    assert!(raws[0].text.contains("foo.unwrap()"));
    assert!(raws[1].text.contains(r##"nested "# quote"##));
}

#[test]
fn nested_block_comment_is_one_token() {
    let tokens = tokenize(TRICKY);
    let nested = tokens
        .iter()
        .find(|t| t.kind == TokenKind::BlockComment && t.text.contains("nested comment"))
        .expect("nested block comment token");
    // The whole nested construct — including the inner close — is one
    // comment; the decoy macros inside never become idents.
    assert!(nested.text.contains(r#"println!("hidden")"#));
}

#[test]
fn char_literals_do_not_derail_string_tracking() {
    let tokens = tokenize(TRICKY);
    let chars: Vec<_> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Char)
        .collect();
    // '"', '\'', '\n'
    assert_eq!(chars.len(), 3);
    // And lifetimes survive as lifetimes, not unterminated chars.
    assert!(tokens
        .iter()
        .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
}

#[test]
fn decoys_in_strings_and_comments_are_never_flagged() {
    let findings = analyze_source("crates/nn/src/tricky.rs", TRICKY);
    let errors: Vec<_> = findings
        .iter()
        .filter(|f| f.severity == dropback_lint::Severity::Error)
        .collect();
    // Exactly one real violation: `v.unwrap()` in `real_violation` —
    // none of the unwrap/println/SystemTime text in strings or comments,
    // and not the test-module unwrap.
    assert_eq!(
        errors.len(),
        1,
        "expected exactly the real_violation finding, got: {:?}",
        errors
    );
    assert_eq!(errors[0].rule, "no-unwrap");
    let unwrap_line = TRICKY
        .lines()
        .position(|l| l.contains("v.unwrap()"))
        .expect("fixture has the violation")
        + 1;
    assert_eq!(errors[0].line as usize, unwrap_line);
}

#[test]
fn cfg_test_modules_are_recognized_after_tricky_tokens() {
    // The #[cfg(test)] module sits after every raw string and comment in
    // the file; `test_only_unwrap` must still be seen as test code.
    let findings = analyze_source("crates/nn/src/tricky.rs", TRICKY);
    assert!(
        !findings.iter().any(|f| {
            f.line > 0
                && TRICKY
                    .lines()
                    .nth(f.line as usize - 1)
                    .unwrap_or("")
                    .contains("3u8")
        }),
        "test-module unwrap must not be flagged"
    );
}

#[test]
fn seeded_workspace_yields_expected_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let report = check_workspace(&root, &Allowlist::empty()).expect("fixture ws lints");
    assert!(report.has_failures());

    let hits = |rule: &str| {
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.path.clone())
            .collect::<Vec<_>>()
    };
    // bad_hash.rs: HashMap use + field type, both outside the test
    // module. core/chaos.rs: one HashMap field — the fault-plan file is
    // itself on the determinism path.
    assert_eq!(hits("hash-iteration").len(), 3);
    assert!(hits("hash-iteration")
        .iter()
        .all(|p| p == "crates/optim/src/bad_hash.rs" || p == "crates/core/src/chaos.rs"));
    assert!(hits("hash-iteration")
        .iter()
        .any(|p| p == "crates/core/src/chaos.rs"));
    // bad_hash.rs: Instant import + Instant::now(); the bad_clock.rs pair
    // proves the allowlist is per-file — Instant outside the sanctioned
    // modules is still flagged (import + now()) in both the telemetry and
    // serve crates, while the fixture span.rs and serve clock.rs (also
    // using Instant) stay clean.
    assert_eq!(hits("wall-clock").len(), 6);
    assert!(hits("wall-clock")
        .iter()
        .any(|p| p == "crates/telemetry/src/bad_clock.rs"));
    assert!(hits("wall-clock")
        .iter()
        .any(|p| p == "crates/serve/src/bad_clock.rs"));
    assert!(!hits("wall-clock")
        .iter()
        .any(|p| p == "crates/telemetry/src/span.rs"));
    assert!(!hits("wall-clock")
        .iter()
        .any(|p| p == "crates/serve/src/clock.rs"));
    // bad_hash.rs first() + nn lib.rs expect; the test-module unwrap and
    // every decoy in strings/comments stay clean. bad_panic.rs unwraps
    // are owned by panic-path, so they do NOT double-count here.
    assert_eq!(hits("no-unwrap").len(), 2);
    // nn lib.rs println!; the binary tool.rs may print freely.
    assert_eq!(hits("no-print"), vec!["crates/nn/src/lib.rs"]);
    assert_eq!(hits("float-eq"), vec!["crates/nn/src/lib.rs"]);
    // nn lib.rs: raw_read is missing its SAFETY comment AND unconfined;
    // checked_read is documented but still unconfined. bad_unsafe.rs:
    // two undocumented, unconfined blocks (a raw deref and an intrinsics
    // block) = four findings. The documented unsafe — including the
    // justified intrinsics in the sanctioned simd.rs fixture — stays
    // clean.
    assert_eq!(hits("unsafe-audit").len(), 7);
    assert_eq!(
        hits("unsafe-audit")
            .iter()
            .filter(|p| *p == "crates/nn/src/lib.rs")
            .count(),
        3
    );
    assert_eq!(
        hits("unsafe-audit")
            .iter()
            .filter(|p| *p == "crates/tensor/src/bad_unsafe.rs")
            .count(),
        4
    );
    assert!(!hits("unsafe-audit")
        .iter()
        .any(|p| p == "crates/tensor/src/simd.rs"));
    // bad_detect.rs probes the CPU outside simd.rs; the fixture simd.rs
    // (which also calls is_x86_feature_detected!) is the sanctioned home
    // and stays clean.
    assert_eq!(
        hits("feature-detect"),
        vec!["crates/tensor/src/bad_detect.rs"]
    );
    assert!(!hits("feature-detect")
        .iter()
        .any(|p| p == "crates/tensor/src/simd.rs"));
    // bad_panic.rs: unwrap + panic! + expect on the request path;
    // core/chaos.rs: unwrap + unreachable! — the fault-injection file
    // wraps live sockets, so it is on the panic path too; nn/tracked.rs:
    // one unwrap on the decode path. The error-propagating good_panic.rs
    // (including its test-module unwrap) stays clean.
    assert_eq!(hits("panic-path").len(), 6);
    assert!(hits("panic-path")
        .iter()
        .all(|p| p == "crates/serve/src/bad_panic.rs"
            || p == "crates/core/src/chaos.rs"
            || p == "crates/nn/src/tracked.rs"));
    assert_eq!(
        hits("panic-path")
            .iter()
            .filter(|p| *p == "crates/nn/src/tracked.rs")
            .count(),
        1
    );
    assert_eq!(
        hits("panic-path")
            .iter()
            .filter(|p| *p == "crates/core/src/chaos.rs")
            .count(),
        2
    );
    // bad_shared.rs: static mut + two Mutex sites + an atomic type + its
    // Ordering::Relaxed site; the Mutex inside the sanctioned rt.rs
    // fixture stays clean.
    assert_eq!(hits("shared-state").len(), 5);
    assert!(hits("shared-state")
        .iter()
        .all(|p| p == "crates/serve/src/bad_shared.rs"));
    assert!(!hits("shared-state")
        .iter()
        .any(|p| p == "crates/serve/src/rt.rs"));
    // Each bad_thread.rs: one spawn + one scope outside the sanctioned
    // owners; the fixture pool.rs and serve rt.rs (sanctioned owners) and
    // the test-module spawns stay clean.
    assert_eq!(hits("raw-thread").len(), 4);
    assert!(hits("raw-thread")
        .iter()
        .all(|p| p == "crates/tensor/src/bad_thread.rs" || p == "crates/serve/src/bad_thread.rs"));
    assert!(hits("raw-thread")
        .iter()
        .any(|p| p == "crates/serve/src/bad_thread.rs"));
    assert!(!hits("raw-thread")
        .iter()
        .any(|p| p == "crates/serve/src/rt.rs"));
    // One TODO marker, informational.
    assert_eq!(report.todos.len(), 1);
}

#[test]
fn allowlist_suppresses_seeded_findings_with_justification() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let allow = Allowlist::parse(
        "hash-iteration crates/optim/src/bad_hash.rs -- fixture exercises suppression\n\
         wall-clock crates/optim/src/bad_hash.rs -- fixture exercises suppression\n\
         wall-clock crates/telemetry/src/bad_clock.rs -- fixture exercises suppression\n\
         wall-clock crates/serve/src/bad_clock.rs -- fixture exercises suppression\n\
         no-unwrap crates/ -- fixture exercises suppression\n\
         no-print crates/nn/src/lib.rs -- fixture exercises suppression\n\
         float-eq crates/nn/src/lib.rs -- fixture exercises suppression\n\
         unsafe-audit crates/nn/src/lib.rs -- fixture exercises suppression\n\
         unsafe-audit crates/tensor/src/bad_unsafe.rs -- fixture exercises suppression\n\
         feature-detect crates/tensor/src/bad_detect.rs -- fixture exercises suppression\n\
         panic-path crates/serve/src/bad_panic.rs -- fixture exercises suppression\n\
         panic-path crates/core/src/chaos.rs -- fixture exercises suppression\n\
         panic-path crates/nn/src/tracked.rs -- fixture exercises suppression\n\
         hash-iteration crates/core/src/chaos.rs -- fixture exercises suppression\n\
         shared-state crates/serve/src/bad_shared.rs -- fixture exercises suppression\n\
         raw-thread crates/tensor/src/bad_thread.rs -- fixture exercises suppression\n\
         raw-thread crates/serve/src/bad_thread.rs -- fixture exercises suppression\n",
    )
    .expect("well-formed allowlist");
    let report = check_workspace(&root, &allow).expect("fixture ws lints");
    assert!(!report.has_failures(), "all findings suppressed");
    assert_eq!(report.suppressed.len(), 36);
    assert!(report.unused_allows.is_empty());
}

#[test]
fn allowlist_entries_naming_unknown_rules_are_refused() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    // `unsafe-safety` was the pre-structural rule id; a stale entry for it
    // must be a hard error, not a silently-dead suppression.
    let allow = Allowlist::parse("unsafe-safety crates/nn/src/lib.rs -- renamed rule\n")
        .expect("well-formed allowlist");
    let err = check_workspace(&root, &allow).unwrap_err();
    assert!(err.contains("unknown rule id 'unsafe-safety'"), "{err}");
    assert!(err.contains("unsafe-audit"), "error lists known ids: {err}");
}

#[test]
fn stale_allow_entries_are_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let allow = Allowlist::parse(
        "no-print crates/nn/src/lib.rs -- real suppression\n\
         wall-clock crates/data/src/ -- nothing there uses the clock\n",
    )
    .expect("well-formed allowlist");
    let report = check_workspace(&root, &allow).expect("fixture ws lints");
    assert_eq!(report.unused_allows.len(), 1);
    assert_eq!(report.unused_allows[0].path_prefix, "crates/data/src/");
}
