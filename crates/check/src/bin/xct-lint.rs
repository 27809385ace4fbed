//! The in-repo lint gate: `cargo run -p xct-check --bin xct-lint`.
//!
//! Scans the workspace sources for the repo-tuned rules documented
//! in `xct_check::lint` and exits nonzero when any finding is not waived.
//! An optional argument overrides the workspace root (defaults to the
//! workspace this binary was built from).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--list-rules") {
        // One rule name per line; CI asserts this count matches
        // `LintRule::ALL` so a rule cannot ship unlisted.
        for rule in xct_check::lint::LintRule::ALL {
            println!("{}", rule.name());
        }
        return ExitCode::SUCCESS;
    }
    let root = arg.map(PathBuf::from).unwrap_or_else(|| {
        // CARGO_MANIFEST_DIR is crates/check; the workspace root is two
        // levels up.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/check has a workspace root two levels up")
            .to_path_buf()
    });
    let findings = xct_check::lint::lint_tree(&root);
    if findings.is_empty() {
        println!("xct-lint: clean ({})", root.display());
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "xct-lint: {} finding(s) in {}:",
        findings.len(),
        root.display()
    );
    for f in &findings {
        eprintln!("  {f}");
    }
    eprintln!(
        "waive intentional sites with `// lint: allow(<rule>) <why>` \
         (narrow-cast also accepts `// in-range: <why>`)"
    );
    ExitCode::FAILURE
}
