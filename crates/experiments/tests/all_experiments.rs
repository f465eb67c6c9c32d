//! The `all_experiments` command line: `--only` selection errors.

use std::process::Command;

fn all_experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .output()
        .expect("all_experiments runs")
}

#[test]
fn unknown_only_id_is_a_usage_error_listing_known_ids() {
    let out = all_experiments(&["--quick", "--only", "fig04,fig05"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`fig05`"), "{stderr}");
    assert!(
        stderr.contains("fig04, ") && stderr.contains("ext_fault_recovery"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the ids are checked"
    );
}

#[test]
fn only_without_a_list_is_a_usage_error() {
    let out = all_experiments(&["--only"]);
    assert_eq!(out.status.code(), Some(2));
}
