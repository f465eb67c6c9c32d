//! The real workspace must lint clean: this is the same gate `ci.sh`
//! runs via `cargo run -p nomc-lint`, wired as a test so `cargo test`
//! alone catches regressions.

use std::path::PathBuf;

#[test]
fn the_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = nomc_lint::lint_workspace(&root).expect("workspace walk failed");
    assert!(
        report.diagnostics.is_empty(),
        "nomc-lint found {} violation(s):\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk saw the whole workspace, not an empty dir.
    assert!(
        report.files_scanned > 100,
        "only {} files scanned — wrong root?",
        report.files_scanned
    );
}

/// DESIGN.md §3 is the one crate inventory: its table names exactly the
/// packages of the root `[workspace] members`, each at its path.
#[test]
fn the_design_inventory_names_every_workspace_member() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let manifest = read("Cargo.toml");
    let members = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("members = "))
        .expect("root manifest lists members");
    let mut paths = Vec::new();
    for pattern in members.trim_matches(['[', ']']).split(',') {
        let pattern = pattern.trim().trim_matches('"');
        match pattern.strip_suffix("/*") {
            Some(dir) => {
                for entry in std::fs::read_dir(root.join(dir)).expect(dir) {
                    let name = entry.expect("dir entry").file_name();
                    let path = format!("{dir}/{}", name.to_string_lossy());
                    if root.join(&path).join("Cargo.toml").is_file() {
                        paths.push(path);
                    }
                }
            }
            None => paths.push(pattern.to_string()),
        }
    }
    let mut members: Vec<(String, String)> = paths
        .into_iter()
        .map(|path| {
            let name = read(&format!("{path}/Cargo.toml"))
                .lines()
                .find_map(|l| l.strip_prefix("name = "))
                .expect("package name")
                .trim_matches('"')
                .to_string();
            (name, path)
        })
        .collect();
    members.sort();

    let design = read("DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("3. "))
        .expect("DESIGN.md §3");
    let mut listed: Vec<(String, String)> = section
        .lines()
        .filter_map(|l| {
            let mut cells = l.strip_prefix("| `")?.split('|');
            let name = cells.next()?.trim().trim_matches('`');
            let path = cells.next()?.trim().trim_matches('`');
            Some((name.to_string(), path.to_string()))
        })
        .collect();
    listed.sort();
    assert_eq!(
        listed, members,
        "DESIGN.md §3 vs the root workspace members"
    );
}
