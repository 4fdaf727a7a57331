//! The `experiments` command line: one strict parser covers the paper
//! artifacts (positional names) and the registered figures (`--figure`)
//! alike, and both forms run through the seed-merging driver.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh output directory for one test.
fn out_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("experiments-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

/// Assert the run was refused with `message` on stderr, before running
/// anything.
fn assert_rejected(args: &[&str], message: &str) {
    let run = experiments(args);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "{args:?} must fail");
    assert!(
        stderr.contains(message),
        "{args:?}: expected {message:?}, got {stderr}"
    );
    assert!(run.stdout.is_empty(), "{args:?} ran before failing");
}

#[test]
fn non_positive_or_nan_secs_is_rejected_in_both_forms() {
    for secs in ["-5", "NaN"] {
        assert_rejected(
            &["ablation", "--secs", secs],
            "--secs must be a positive number",
        );
        assert_rejected(
            &["--figure", "ablation", "--secs", secs],
            "--secs must be a positive number",
        );
    }
}

#[test]
fn missing_secs_value_is_rejected_in_both_forms() {
    assert_rejected(&["fig11", "--secs"], "--secs requires a value");
    assert_rejected(&["--figure", "fig11", "--secs"], "--secs requires a value");
    assert_rejected(
        &["--figure", "fig11", "--secs", "--smoke"],
        "--secs requires a value",
    );
}

#[test]
fn seeds_and_threads_are_honoured_in_both_forms() {
    for (form, args) in [
        ("positional", &["util_low"][..]),
        ("figure", &["--figure", "util_low"][..]),
    ] {
        let out = out_dir(form);
        let mut argv = args.to_vec();
        argv.extend(["--secs", "200", "--threads", "4", "--seeds", "3", "--out"]);
        argv.push(out.to_str().expect("UTF-8 temp path"));
        let run = experiments(&argv);
        assert!(
            run.status.success(),
            "{form}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(stdout.contains("4 cells × 3 seeds"), "{form}: {stdout}");
        assert!(stdout.contains("on 4 threads"), "{form}: {stdout}");
        let json = std::fs::read_to_string(out.join("BENCH_util_low.json"))
            .expect("merged figure JSON written");
        assert!(json.contains("\"seeds\": 3,"), "{form}: {json}");
        let perf =
            std::fs::read_to_string(out.join("BENCH_perf.json")).expect("perf JSON");
        assert!(perf.contains("\"threads\": 4,"), "{form}: {perf}");
        if form == "positional" {
            assert!(
                stdout.contains("== Section 5.4: PMM sensitivity to UtilLow"),
                "{stdout}"
            );
        }
        let _ = std::fs::remove_dir_all(out);
    }
}

#[test]
fn unknown_artifacts_and_flags_are_rejected() {
    assert_rejected(&["scale"], "unknown artifact \"scale\"");
    assert_rejected(&["fig3", "--seed", "2"], "unknown flag --seed");
    assert_rejected(&["--figure", "fig99"], "unknown figure \"fig99\"");
}
