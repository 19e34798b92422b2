//! Builds the release binaries the benchmark drives from the checked-out
//! sources, so a comparison never times a stale executable.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The executables under test.
#[derive(Debug, Clone)]
pub struct Binaries {
    /// `delta_cli`.
    pub cli: PathBuf,
    /// `delta_serve`.
    pub serve: PathBuf,
}

/// The binaries' names, as Cargo targets.
const TARGETS: [&str; 2] = ["delta_cli", "delta_serve"];

/// Runs `cargo build --release` for both binaries in `root` (honouring
/// `CARGO_TARGET_DIR`) and returns the executables Cargo reports.
///
/// # Errors
///
/// A message naming the failed build or the missing binary.
pub fn build(root: &Path) -> Result<Binaries, String> {
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned()));
    cmd.current_dir(root)
        .args(["build", "--release", "--message-format=json"])
        .args(TARGETS.iter().flat_map(|t| ["--bin", t]))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run cargo to build {TARGETS:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cargo build of {TARGETS:?} failed ({}) in {}",
            out.status,
            root.display()
        ));
    }
    let messages = String::from_utf8_lossy(&out.stdout);
    let find = |name: &str| -> Result<PathBuf, String> {
        let path = messages
            .lines()
            .filter(|l| l.contains("\"reason\":\"compiler-artifact\""))
            .filter(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .find_map(|l| json_string_field(l, "executable"))
            .map(PathBuf::from)
            .ok_or_else(|| format!("binary {name} missing: cargo reported no executable for it"))?;
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!("binary {name} missing at {}", path.display()))
        }
    };
    Ok(Binaries {
        cli: find(TARGETS[0])?,
        serve: find(TARGETS[1])?,
    })
}

/// The value of a string field in one line of Cargo's JSON messages
/// (paths here carry no escapes beyond `\\`).
fn json_string_field(line: &str, key: &str) -> Option<String> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].replace("\\\\", "\\"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_executable_field() {
        let line = r#"{"reason":"compiler-artifact","target":{"name":"delta_serve"},"executable":"/x/release/delta_serve","fresh":true}"#;
        assert_eq!(
            json_string_field(line, "executable").as_deref(),
            Some("/x/release/delta_serve")
        );
        assert_eq!(
            json_string_field(r#"{"executable":null}"#, "executable"),
            None
        );
    }
}
