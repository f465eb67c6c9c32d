//! Run metadata printed with every result, so records from different
//! machines or builds are never compared blindly.

use std::path::{Path, PathBuf};
use std::process::Command;

use nomc_json::{Json, ToJson};

/// Where and on what a run happened.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `rustc -V`, or why it could not be read.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, when it is a git checkout.
    pub git_commit: String,
    /// FNV-1a over every Rust source and manifest of the simulator
    /// crates: identifies the code under test with or without git.
    pub source_digest: String,
    /// Build profile of this binary.
    pub profile: &'static str,
}

/// The repository root: the directory above this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Collects the metadata (spawns `rustc` and `git`, waiting for both).
pub fn collect() -> Meta {
    let root = repo_root();
    Meta {
        nproc: nproc(),
        rustc: command_line("rustc", &["-V"], &root).unwrap_or_else(|| "unavailable".into()),
        git_commit: root
            .join(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "HEAD"], &root))
            .flatten()
            .unwrap_or_else(|| "none (not a git checkout)".into()),
        source_digest: format!("{:016x}", source_digest(&root.join("crates"))),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release (lto=thin)"
        },
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn source_digest(crates: &Path) -> u64 {
    let mut files = Vec::new();
    collect_sources(crates, &mut files);
    files.sort();
    let mut h = nomc_experiments::sweep::hash::Fnv1a::new();
    for f in &files {
        // Relative paths: the same code checked out anywhere digests alike.
        let rel = f.strip_prefix(crates).unwrap_or(f);
        h.write(rel.to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    h.finish()
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_sources(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

impl Meta {
    /// The metadata plus the run's own parameters as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
        Json::object([
            ("workload", Json::Str(workload.into())),
            ("seed", seed.to_json()),
            ("seconds", seconds.to_json()),
            ("trace", Json::Bool(trace)),
            ("nproc", (self.nproc as u64).to_json()),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("source_digest", Json::Str(self.source_digest.clone())),
            ("profile", Json::Str(self.profile.into())),
            (
                "environment",
                Json::Str("loopback TCP; server state on the checkout's own disk".into()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_digest_ignores_where_the_tree_lives() {
        let base = crate::report::scratch_dir("meta-test");
        let write_tree = |root: &Path, body: &str| {
            std::fs::create_dir_all(root.join("a/src")).unwrap();
            std::fs::write(root.join("a/Cargo.toml"), "[package]").unwrap();
            std::fs::write(root.join("a/src/lib.rs"), body).unwrap();
        };
        write_tree(&base.join("one/crates"), "fn f() {}");
        write_tree(&base.join("elsewhere/two/crates"), "fn f() {}");
        write_tree(&base.join("three/crates"), "fn g() {}");
        let one = source_digest(&base.join("one/crates"));
        assert_eq!(one, source_digest(&base.join("elsewhere/two/crates")));
        assert_ne!(one, source_digest(&base.join("three/crates")));
        let _ = std::fs::remove_dir_all(&base);
    }
}
