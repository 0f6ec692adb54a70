//! `dropback-cli` contract tests: bad flag values fail loudly with an
//! actionable message instead of silently falling back to defaults.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dropback-cli"))
        .args(args)
        .output()
        .expect("dropback-cli runs")
}

#[test]
fn unparsable_flag_value_is_an_error_not_a_default() {
    let out = cli(&["train", "--epochs", "banana"]);
    assert!(!out.status.success(), "must not train with a bad --epochs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid value \"banana\" for --epochs"),
        "error must name the flag and the bad value, got: {stderr}"
    );
}

#[test]
fn unparsable_numeric_flags_fail_across_subcommands() {
    let out = cli(&["energy", "--budget", "-3"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("for --budget"), "got: {stderr}");
}

#[test]
fn info_still_works_with_valid_flags() {
    let out = cli(&["info", "--model", "mnist-100-100", "--seed", "7"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parameters"), "got: {stdout}");
}

// ---- crash-safe training: --checkpoint-dir / --resume ----

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dropback-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny deterministic training invocation: seeded synthetic data, two
/// epochs, small budget — finishes in a couple of seconds.
fn tiny_train(
    dir: &std::path::Path,
    epochs: &str,
    seed: &str,
    resume: bool,
) -> std::process::Output {
    let dir_s = dir.to_string_lossy().into_owned();
    let mut args = vec![
        "train",
        "--train",
        "64",
        "--test",
        "32",
        "--epochs",
        epochs,
        "--budget",
        "4000",
        "--freeze",
        "2",
        "--seed",
        seed,
        "--quiet",
        "--checkpoint-dir",
        &dir_s,
    ];
    if resume {
        args.push("--resume");
    }
    cli(&args)
}

#[test]
fn resume_happy_path_matches_straight_run() {
    // Straight 4-epoch run (snapshots written, resume not requested).
    let dir_a = tmp_dir("straight");
    let straight = tiny_train(&dir_a, "4", "13", false);
    assert!(
        straight.status.success(),
        "straight run failed: {}",
        String::from_utf8_lossy(&straight.stderr)
    );

    // 2 epochs, "crash", then resume to 4 in a separate directory.
    let dir_b = tmp_dir("resumed");
    let first = tiny_train(&dir_b, "2", "13", false);
    assert!(first.status.success());
    let resumed = tiny_train(&dir_b, "4", "13", true);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    // The stdout result line is byte-identical to the uninterrupted run.
    assert_eq!(
        String::from_utf8_lossy(&straight.stdout),
        String::from_utf8_lossy(&resumed.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn resume_falls_back_past_corrupted_newest_with_a_warning() {
    let dir = tmp_dir("fallback");
    let first = tiny_train(&dir, "3", "13", false);
    assert!(first.status.success());
    // Corrupt the newest snapshot (epoch-3 state).
    let newest = dir.join("state-00000003.dbk2");
    let mut bytes = std::fs::read(&newest).expect("snapshot exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&newest, bytes).unwrap();

    let resumed = tiny_train(&dir, "4", "13", true);
    assert!(resumed.status.success(), "fallback resume must succeed");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("skipped corrupt snapshot"),
        "stderr must warn about the skipped snapshot, got: {stderr}"
    );
    assert!(stderr.contains("state-00000003.dbk2"), "got: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_incompatible_seed_exits_2_with_actionable_error() {
    let dir = tmp_dir("wrong-seed");
    let first = tiny_train(&dir, "2", "13", false);
    assert!(first.status.success());
    let resumed = tiny_train(&dir, "4", "14", true);
    assert_eq!(
        resumed.status.code(),
        Some(2),
        "incompatible resume must exit 2, stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("cannot resume"), "got: {stderr}");
    assert!(
        stderr.contains("seed"),
        "error must name the seed: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_a_legacy_sparse_snapshot_exits_2() {
    // `--budget` runs used to train the retired `dropback-sparse` rule.
    // Rewrite a fresh run's newest snapshot into that shape: it must be
    // refused as incompatible, not resumed under DropBack.
    use dropback::optim::{OptState, StateField};
    use dropback::TrainState;
    let dir = tmp_dir("legacy-sparse");
    let first = tiny_train(&dir, "2", "13", false);
    assert!(first.status.success());
    let newest = dir.join("state-00000002.dbk2");
    let bytes = std::fs::read(&newest).expect("snapshot exists");
    let mut state = TrainState::read_from(&bytes[..]).expect("snapshot decodes");
    state.optimizer = "dropback-sparse".into();
    state.opt_state = OptState::new("dropback-sparse")
        .with("k", StateField::U64(4_000))
        .with("freeze_after", StateField::U64(2))
        .with(
            "tracked",
            StateField::Pairs(state.entries.entries().to_vec()),
        );
    let mut legacy = Vec::new();
    state.write_to(&mut legacy).unwrap();
    std::fs::write(&newest, legacy).unwrap();

    let resumed = tiny_train(&dir, "4", "13", true);
    assert_eq!(
        resumed.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("dropback-sparse"), "got: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_runs_report_the_dropback_optimizer() {
    let dir = tmp_dir("result-event");
    let out = tiny_train(&dir, "1", "13", false);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(r#""optimizer":"dropback""#),
        "got: {stdout}"
    );
    assert!(stdout.contains(r#""stored_weights":4000"#), "got: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_checkpoint_dir_is_an_error() {
    let out = cli(&["train", "--resume", "--epochs", "1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume requires --checkpoint-dir"),
        "got: {stderr}"
    );
}
