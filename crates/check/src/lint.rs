//! In-repo source lint driver (`cargo run -p xct-check --bin xct-lint`).
//!
//! The workspace builds fully offline, so custom lints cannot come from
//! dylint or crates.io plugins; instead this module implements a small,
//! repo-tuned source scanner with five rules:
//!
//! - **narrow-cast** — forbid `as u16` / `as u32` narrowing casts. The
//!   blessed exception is the `BufferIndex` helpers in
//!   `crates/sparse/src/buffered.rs`, whose unchecked path is only reached
//!   after `try_from_usize` validated the plan. Any other site must carry a
//!   `// in-range: <why>` (or `// lint: allow(narrow-cast) <why>`) waiver
//!   stating the range argument.
//! - **no-panic** — forbid `unwrap()` / `expect(` / `panic!` / panicking
//!   asserts in public API paths (`crates/memxct/src`, `crates/cli/src`),
//!   continuing the `BuildError` migration. `debug_assert!` is allowed.
//!   Waive with `// lint: allow(no-panic) <why>`.
//! - **unsafe** — every crate root must declare `#![forbid(unsafe_code)]`
//!   unless the crate actually contains `unsafe`, in which case each
//!   `unsafe` site must carry a `// SAFETY:` comment on or just above it.
//! - **sync-facade** — forbid raw `std::sync::{Mutex, Condvar, RwLock}`
//!   (and the `parking_lot` shim) in the model-checked crates
//!   (`crates/runtime/src`, `crates/serve/src`): concurrency there must go
//!   through the `xct_model::sync` facade so the schedule explorer sees
//!   every preemption point. Waive with
//!   `// lint: allow(sync-facade) <why>`.
//! - **retired-name** — names that earlier changes deleted must not come
//!   back: one table ([`RETIRED`]: names, path scope, message) holds the
//!   deprecated-shim ban, the retired kernels and dispatch twins, and the
//!   second threading substrate (`rayon`, `par_iter`, `thread::scope`, …
//!   outside `xct-runtime` / `xct-model`, and in every `Cargo.toml`), the
//!   ordered-subsets side driver `Solver::OsSirt` replaced, the side
//!   doors into the engine and the runtime (closure solvers, the
//!   six-argument distributed entry, unused collectives), the ranks'
//!   private block kernel, the builder's second spelling of run policy
//!   and `Config`, the criterion benches, and the layout switches
//!   `Config::kernel` replaced.
//!
//! The scanner strips string literals and comments before matching (so doc
//! examples and messages never fire a rule) and skips `target/` entirely.
//! `#[cfg(test)]` modules, `tests/`, `benches/` and manifests are scanned
//! for retired names only. Waivers are read from the raw line or the line
//! above the finding.

use std::fmt;
use std::path::{Path, PathBuf};

/// Which lint rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintRule {
    /// Unchecked `as u16` / `as u32` narrowing cast.
    NarrowCast,
    /// `unwrap()` / `expect()` / panicking assert in a public API path.
    NoPanic,
    /// Undeclared `unsafe` policy (missing `#![forbid(unsafe_code)]` or
    /// an undocumented `unsafe` site).
    UnsafeCode,
    /// Raw `std::sync` / `parking_lot` primitive in a crate that must use
    /// the `xct_model::sync` facade.
    SyncFacade,
    /// A name from the [`RETIRED`] table in a path its row polices.
    RetiredName,
}

impl LintRule {
    /// Every rule the scanner knows, in a stable order. Mirrors
    /// `Invariant::ALL`: coverage tests diff against this list so a new
    /// rule cannot ship without a firing fixture, and CI asserts the
    /// `--list-rules` count matches.
    pub const ALL: &'static [LintRule] = &[
        LintRule::NarrowCast,
        LintRule::NoPanic,
        LintRule::UnsafeCode,
        LintRule::SyncFacade,
        LintRule::RetiredName,
    ];

    /// The name used in `// lint: allow(<name>)` waivers.
    pub fn name(self) -> &'static str {
        match self {
            LintRule::NarrowCast => "narrow-cast",
            LintRule::NoPanic => "no-panic",
            LintRule::UnsafeCode => "unsafe",
            LintRule::SyncFacade => "sync-facade",
            LintRule::RetiredName => "retired-name",
        }
    }
}

/// One row of the `retired-name` table: names an earlier change deleted,
/// where they must stay gone, and what replaced them.
struct Retired {
    /// Whole tokens (as [`has_token`] matches them) that must not appear.
    names: &'static [&'static str],
    /// Which workspace-relative paths the row polices.
    scope: fn(&str) -> bool,
    /// What replaced the names.
    message: &'static str,
}

fn anywhere(_rel: &str) -> bool {
    true
}

/// Every manifest, and `crates/*/src` outside the two crates that own
/// threads (`xct-runtime` runs ranks and the pool, `xct-model` is the
/// facade they are built on).
fn outside_the_thread_owners(rel: &str) -> bool {
    let owner = rel.starts_with("crates/runtime/") || rel.starts_with("crates/model/");
    rel.ends_with("Cargo.toml") || (rel.starts_with("crates/") && rel.contains("/src/") && !owner)
}

/// The product and everything written against it.
fn product_and_its_callers(rel: &str) -> bool {
    ["crates/", "tests/", "examples/"]
        .iter()
        .any(|root| rel.starts_with(root))
}

/// Every manifest.
fn manifests(rel: &str) -> bool {
    rel.ends_with("Cargo.toml")
}

/// The retired names, one row per deletion that must not be undone.
const RETIRED: &[Retired] = &[
    Retired {
        names: &["allow(deprecated)", "#[deprecated"],
        scope: anywhere,
        message: "deprecated items are not allowed in this workspace: port the callers and \
            delete the old name in the same change",
    },
    Retired {
        names: &[
            "rayon",
            "crossbeam",
            "into_par_iter",
            "par_iter",
            "par_chunks",
            "par_chunks_mut",
            "thread::scope",
        ],
        scope: outside_the_thread_owners,
        message: "xct_runtime::WorkerPool over an ExecPlan is the only threading substrate \
            (build, solve, baseline and benches alike)",
    },
    Retired {
        names: &[
            "spmv_parallel",
            "spmv_parallel_into",
            "TiledCsr",
            "ParallelOperator",
        ],
        scope: anywhere,
        message: "retired kernel/operator: the pooled `spmm*_into` entries and `KernelOperator` \
            are the one threaded path",
    },
    Retired {
        names: &[
            "run_with_scratch",
            "try_run_with_scratch",
            "run_batched_with_scratch",
            "try_run_batched_with_scratch",
            "try_run",
            "dot_f64_pooled",
            "dot_batch_plan",
            "DistributedBatchUnsupported",
            "enum DistSolver",
            "reconstruct_distributed",
            "reconstruct_distributed_with_metrics",
        ],
        scope: anywhere,
        message: "retired width-1 twin: the pool has one dispatch (`try_run_batched`, spelled \
            `run_batched` / `run`), xct-sparse one pooled dot, and ranks are an executor of the \
            one solve driver",
    },
    Retired {
        names: &["run_volume", "SolveExit", "BatchOutput"],
        scope: product_and_its_callers,
        message: "retired second path: every input is groups x one stint in the driver's group \
            loop (snapshot slot = group index), which fills a `ReconResponse` directly",
    },
    Retired {
        names: &["OrderedSubsets", "OsRule", "RowSubsetOperator"],
        scope: product_and_its_callers,
        message: "retired side driver: OS-SIRT is `Solver::OsSirt`, one more rule of the group \
            loop (subsets built once per request by the driver)",
    },
    Retired {
        names: &[
            "ClosureOperator",
            "sirt_nonneg",
            "try_reconstruct_distributed_ft",
            "SliceBatch",
            "allgather",
            "try_allgather",
            "allreduce_sum",
            "try_allreduce_sum",
            "alltoallv_u32",
            "try_alltoallv_u32",
        ],
        scope: product_and_its_callers,
        message: "retired side door: a solve takes a `ProjectionOperator` (`run_engine`) or a \
            `ReconRequest` (`Reconstructor::run`, `ExecMode::Distributed` for ranks), and ranks \
            exchange through `try_alltoallv` alone",
    },
    Retired {
        names: &[
            "local_spmm",
            "a_local_buf",
            "at_local_buf",
            "try_forward_batch",
            "try_back_batch",
        ],
        scope: product_and_its_callers,
        message: "retired private block kernel: a rank's column block runs through \
            `KernelOperator` inside `DistOperator` (its buffered pair is `RankPlan::local_buf`), \
            as an OS-SIRT subset's row block does",
    },
    Retired {
        names: &["BatchOut", "SPMM_ROW_TILE"],
        scope: product_and_its_callers,
        message: "retired slice-major carving: batched slabs are slice-interleaved from the \
            engine to the kernel, so a pool worker's rows are one contiguous `&mut [T]` and \
            the CSR SpMM needs no row tile",
    },
    Retired {
        names: &[
            "checkpoint_sink",
            "checkpoint_path",
            "comm_config",
            "fault_plan",
            "partition_size",
            "buffer_size",
            "with_config",
            "Reconstructor::builder",
            "fn fault_tolerance",
        ],
        scope: product_and_its_callers,
        message: "retired second spelling: `ReconstructorBuilder::new` builds the plan from a \
            `Config`; checkpoints and fault tolerance are the request's \
            (`ReconRequest::checkpoint`, `ExecMode::Distributed { ft }`)",
    },
    Retired {
        names: &["criterion"],
        scope: manifests,
        message: "retired criterion benches: recon-bench reports what they timed \
            (`hilbert.order_s`, `sparse.transpose_s`, `sparse.spmv_*_s`)",
    },
    Retired {
        names: &["resume_from"],
        scope: product_and_its_callers,
        message: "retired job-side durability: a served job checkpoints through its request's \
            `CheckpointPolicy`; resubmit with `request.checkpoint(result.checkpoint.unwrap())`",
    },
    Retired {
        names: &["build_buffered", "build_ell", "LayoutNotBuilt"],
        scope: product_and_its_callers,
        message: "retired layout switches: a plan builds the layouts of its one \
            `Config::kernel`; attach another layout to the `Operators` by hand \
            (`ops.a_ell = Some(EllMatrix::from_csr(&ops.a, ops.partsize))`) or build one plan \
            per kernel",
    },
];

/// The message of the first [`RETIRED`] row that polices `rel` and has a
/// name in `code`.
fn retired_name(rel: &str, code: &str) -> Option<&'static str> {
    RETIRED
        .iter()
        .find(|row| (row.scope)(rel) && row.names.iter().any(|name| has_token(code, name)))
        .map(|row| row.message)
}

/// One lint finding: file, 1-based line, rule, and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// The rule that fired.
    pub rule: LintRule,
    /// What was found and how to fix or waive it.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Strip comments and string/char literals from one line of source,
/// carrying block-comment state across lines. Stripped spans become
/// spaces so byte offsets are preserved.
fn strip_code(line: &str, in_block_comment: &mut bool) -> String {
    let bytes = line.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        if *in_block_comment {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if in_str {
            match bytes[i] {
                b'\\' => i += 2, // skip the escaped char
                b'"' => {
                    in_str = false;
                    i += 1;
                }
                _ => i += 1,
            }
            continue;
        }
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break, // line comment
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *in_block_comment = true;
                i += 2;
            }
            b'"' => {
                in_str = true;
                i += 1;
            }
            b'\'' => {
                // Char literal ('x', '\n', '\'') vs lifetime ('a). A char
                // literal closes with a quote within a few bytes.
                let lit_len = if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    // escaped char; find the closing quote
                    bytes[i + 2..]
                        .iter()
                        .position(|&b| b == b'\'')
                        .map(|p| p + 3)
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    Some(3)
                } else {
                    None
                };
                match lit_len {
                    Some(len) => i += len, // strip the literal
                    None => {
                        out[i] = bytes[i]; // lifetime tick: keep it
                        i += 1;
                    }
                }
            }
            b => {
                out[i] = b;
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

/// Find `token` in `code` such that the previous byte is not part of an
/// identifier (so `assert!` does not match inside `debug_assert!`).
fn has_token(code: &str, token: &str) -> bool {
    // Only identifier-leading tokens need a boundary check on the left
    // (`.unwrap()` is already delimited by its dot).
    let first = token.as_bytes()[0];
    let need_boundary = first.is_ascii_alphanumeric() || first == b'_';
    let last = *token.as_bytes().last().unwrap_or(&b' ');
    let tail_boundary = last.is_ascii_alphanumeric() || last == b'_';
    let mut start = 0;
    while let Some(p) = code[start..].find(token) {
        let at = start + p;
        let after = at + token.len();
        let prev_ok = !need_boundary
            || at == 0
            || !code.as_bytes()[at - 1].is_ascii_alphanumeric() && code.as_bytes()[at - 1] != b'_';
        let next_ok = !tail_boundary
            || after >= code.len()
            || !code.as_bytes()[after].is_ascii_alphanumeric() && code.as_bytes()[after] != b'_';
        if prev_ok && next_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// True when a narrowing `as u16` / `as u32` cast appears: the `as`
/// keyword followed by the narrow target type as a full token.
fn has_narrow_cast(code: &str) -> bool {
    for target in ["u16", "u32"] {
        let mut start = 0;
        while let Some(p) = code[start..].find(target) {
            let at = start + p;
            let after = at + target.len();
            let after_ok = after >= code.len()
                || !code.as_bytes()[after].is_ascii_alphanumeric()
                    && code.as_bytes()[after] != b'_';
            // Preceded by the `as` keyword?
            let before = code[..at].trim_end();
            if after_ok && before.ends_with("as") {
                let b = before.as_bytes();
                if b.len() == 2 || !b[b.len() - 3].is_ascii_alphanumeric() && b[b.len() - 3] != b'_'
                {
                    return true;
                }
            }
            start = at + 1;
        }
    }
    false
}

/// True when line `i` (0-based) of `raw_lines` carries a waiver for
/// `rule`, on the same line or the immediately preceding one.
fn waived(raw_lines: &[&str], i: usize, rule: LintRule) -> bool {
    let allow = format!("lint: allow({})", rule.name());
    let mut candidates = vec![raw_lines[i]];
    if i > 0 {
        candidates.push(raw_lines[i - 1]);
    }
    candidates
        .iter()
        .any(|l| l.contains(&allow) || (rule == LintRule::NarrowCast && l.contains("in-range:")))
}

/// True when an `unsafe` site at line `i` is documented with a
/// `// SAFETY:` comment on the same line or within the 3 lines above.
fn safety_documented(raw_lines: &[&str], i: usize) -> bool {
    (i.saturating_sub(3)..=i).any(|j| raw_lines[j].contains("SAFETY:"))
}

/// Lint one file's contents under the given rules. `relpath` is only used
/// to label findings.
pub fn lint_file(relpath: &str, content: &str, rules: &[LintRule]) -> Vec<LintFinding> {
    let raw_lines: Vec<&str> = content.lines().collect();
    let mut findings = Vec::new();
    let mut in_block_comment = false;
    let mut depth: i64 = 0;
    let mut skip_depth: Option<i64> = None;
    let mut pending_cfg_test = false;

    for (i, raw) in raw_lines.iter().enumerate() {
        let code = strip_code(raw, &mut in_block_comment);
        let trimmed = code.trim();

        // Track `#[cfg(test)] mod ... { ... }` regions and skip them.
        if skip_depth.is_none() {
            if pending_cfg_test && has_token(&code, "mod") && code.contains('{') {
                skip_depth = Some(depth);
                pending_cfg_test = false;
            } else if trimmed.contains("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                pending_cfg_test = false;
            }
        }
        let active = skip_depth.is_none();

        for &rule in rules {
            // Retired names stay gone from test modules too.
            if !active && rule != LintRule::RetiredName {
                continue;
            }
            let message = match rule {
                LintRule::NarrowCast => has_narrow_cast(&code).then_some(
                    "unchecked narrowing cast; use a checked conversion (e.g. \
                    BufferIndex::try_from_usize) or waive with `// in-range: <why>`",
                ),
                LintRule::NoPanic => [
                    ".unwrap()",
                    ".expect(",
                    "panic!",
                    "unreachable!",
                    "todo!",
                    "unimplemented!",
                    "assert!",
                    "assert_eq!",
                    "assert_ne!",
                ]
                .iter()
                .any(|token| has_token(&code, token))
                .then_some(
                    "panicking call in a public API path; return a typed error \
                    (BuildError/LayoutError) or waive with `// lint: allow(no-panic) <why>`",
                ),
                LintRule::UnsafeCode => (has_token(&code, "unsafe")
                    && !safety_documented(&raw_lines, i))
                .then_some("`unsafe` without a `// SAFETY:` comment"),
                LintRule::SyncFacade => (has_token(&code, "parking_lot")
                    || (code.contains("std::sync")
                        && (code.contains("Mutex")
                            || code.contains("Condvar")
                            || code.contains("RwLock"))))
                .then_some(
                    "raw sync primitive in a model-checked crate; use the xct_model::sync \
                    facade so the schedule explorer sees this lock, or waive with \
                    `// lint: allow(sync-facade) <why>`",
                ),
                LintRule::RetiredName => retired_name(relpath, &code),
            };
            if let Some(message) = message.filter(|_| !waived(&raw_lines, i, rule)) {
                findings.push(LintFinding {
                    file: relpath.to_string(),
                    line: i + 1,
                    rule,
                    message: message.to_string(),
                });
            }
        }

        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        if let Some(d) = skip_depth {
            if depth <= d {
                skip_depth = None;
            }
        }
    }
    findings
}

/// Which rules apply to a workspace-relative path, or `None` to skip the
/// file entirely.
fn rules_for(rel: &str) -> Option<Vec<LintRule>> {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.contains(&"target") {
        return None;
    }
    if rel.ends_with("Cargo.toml") || parts.iter().any(|p| *p == "tests" || *p == "benches") {
        // Manifests and test/bench targets: only retired names are policed.
        return Some(vec![LintRule::RetiredName]);
    }
    if parts.first() == Some(&"shims") {
        // Vendored shims: the unsafe policy, and no retired names.
        return Some(vec![LintRule::UnsafeCode, LintRule::RetiredName]);
    }
    let public_api = rel.starts_with("crates/memxct/src")
        || rel.starts_with("crates/cli/src")
        || rel.starts_with("crates/serve/src");
    let mut rules = vec![
        LintRule::NarrowCast,
        LintRule::UnsafeCode,
        LintRule::RetiredName,
    ];
    if public_api {
        rules.push(LintRule::NoPanic);
    }
    // The model-checked crates must route all locking through the
    // xct_model::sync facade (crates/model itself IS the facade).
    if rel.starts_with("crates/runtime/src") || rel.starts_with("crates/serve/src") {
        rules.push(LintRule::SyncFacade);
    }
    Some(rules)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" {
                walk(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// Lint the whole workspace rooted at `root`. Scans the root manifest,
/// `crates/`, `shims/`, `src/`, `examples/` and `tests/`; returns all
/// findings sorted by path.
pub fn lint_tree(root: &Path) -> Vec<LintFinding> {
    let mut files = vec![root.join("Cargo.toml")];
    for top in ["crates", "shims", "src", "examples", "tests"] {
        walk(&root.join(top), &mut files);
    }
    let mut findings = Vec::new();
    let mut crate_infos: Vec<(String, bool, bool)> = Vec::new(); // (root file, has_forbid, crate_has_unsafe)

    // Group files by crate directory for the forbid(unsafe_code) rule.
    let mut crate_unsafe: std::collections::HashMap<String, bool> =
        std::collections::HashMap::new();
    let mut contents: Vec<(String, String, Vec<LintRule>)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(content) = std::fs::read_to_string(path) else {
            continue;
        };
        let Some(rules) = rules_for(&rel) else {
            continue;
        };
        // Only the sources the unsafe rule polices count (not tests,
        // benches or manifests, which are scanned for retired names only).
        let policed = rules.contains(&LintRule::UnsafeCode);
        if let Some(crate_dir) = crate_dir_of(&rel).filter(|_| policed) {
            let mut in_block = false;
            let has_unsafe = content
                .lines()
                .any(|l| has_token(&strip_code(l, &mut in_block), "unsafe"));
            let entry = crate_unsafe.entry(crate_dir).or_insert(false);
            *entry = *entry || has_unsafe;
        }
        contents.push((rel, content, rules));
    }

    for (rel, content, rules) in &contents {
        findings.extend(lint_file(rel, content, rules));
        // Crate roots must declare the unsafe policy.
        if rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") {
            let crate_dir = crate_dir_of(rel).unwrap_or_default();
            let has_forbid = content.contains("#![forbid(unsafe_code)]");
            let has_unsafe = crate_unsafe.get(&crate_dir).copied().unwrap_or(false);
            crate_infos.push((rel.clone(), has_forbid, has_unsafe));
        }
    }

    for (rel, has_forbid, has_unsafe) in crate_infos {
        if !has_forbid && !has_unsafe {
            findings.push(LintFinding {
                file: rel,
                line: 0,
                rule: LintRule::UnsafeCode,
                message: "crate uses no `unsafe`; declare `#![forbid(unsafe_code)]` at the \
                    crate root"
                    .to_string(),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// The `crates/<name>` / `shims/<name>` prefix a path belongs to, or
/// `"."` for the workspace-root `src/`.
fn crate_dir_of(rel: &str) -> Option<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.first() {
        Some(&"crates") | Some(&"shims") if parts.len() > 2 => {
            Some(format!("{}/{}", parts[0], parts[1]))
        }
        Some(&"src") => Some(".".to_string()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[LintRule] = LintRule::ALL;

    /// One minimal mutation fixture per rule: a source snippet whose only
    /// defect is that rule's violation. Coverage is diffed against
    /// [`LintRule::ALL`], so adding a rule without a fixture fails here —
    /// the same closed-loop discipline as `Invariant::ALL`.
    const FIXTURES: &[(LintRule, &str)] = &[
        (LintRule::NarrowCast, "let a = b as u32;\n"),
        (LintRule::NoPanic, "pub fn f() { x.unwrap(); }\n"),
        (LintRule::UnsafeCode, "pub fn f() { unsafe { g() } }\n"),
        (LintRule::SyncFacade, "use std::sync::Mutex;\n"),
        (LintRule::RetiredName, "let m = TiledCsr::from_csr(&a);\n"),
    ];

    /// One firing fixture per [`RETIRED`] row, in table order: a path the
    /// row polices and a line holding one of its names.
    const RETIRED_FIXTURES: &[(&str, &str)] = &[
        ("crates/memxct/tests/golden.rs", "#[allow(deprecated)]\n"),
        ("crates/compxct/src/lib.rs", "use rayon::prelude::*;\n"),
        ("examples/quickstart.rs", "let y = spmv_parallel(&a, &x);\n"),
        (
            "crates/sparse/src/pooled.rs",
            "pool.try_run(&plan, &mut y, k)?;\n",
        ),
        (
            "crates/memxct/src/reconstructor.rs",
            "ReconInput::Volume(sinos) => self.run_volume(sinos, req),\n",
        ),
        (
            "tests/extensions.rs",
            "let (x, recs) = OrderedSubsets::new(&ops, 6).solve(&y, 8, 1.0);\n",
        ),
        (
            "crates/memxct/tests/fault_tolerance.rs",
            "let out = try_reconstruct_distributed_ft(&ops, &y, &config, &ft, None, &m)?;\n",
        ),
        (
            "crates/memxct/src/dist.rs",
            "let y = plan.try_forward_batch(comm, &x, 1, &mut kb)?;\n",
        ),
        (
            "crates/sparse/src/batch.rs",
            "pool.run_batched(plan, y, k, |_p, rows, mut out: BatchOut<'_, f32>, _s| {});\n",
        ),
        (
            "crates/cli/src/main.rs",
            "builder = builder.fault_plan(plan).max_restarts(1);\n",
        ),
        ("crates/bench/Cargo.toml", "criterion.workspace = true\n"),
        (
            "crates/serve/tests/serve.rs",
            "let spec = JobSpec::new(\"resume\", plan, request).resume_from(retained);\n",
        ),
        (
            "crates/memxct/tests/pooled.rs",
            "let config = Config { build_ell: true, ..Config::default() };\n",
        ),
    ];

    #[test]
    fn every_retired_row_fires_on_its_fixture() {
        assert_eq!(RETIRED_FIXTURES.len(), RETIRED.len(), "one fixture per row");
        for (row, (path, src)) in RETIRED.iter().zip(RETIRED_FIXTURES) {
            let rules = rules_for(path).expect("scanned");
            let f = lint_file(path, src, &rules);
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(
                (f[0].rule, f[0].message.as_str()),
                (LintRule::RetiredName, row.message)
            );
        }
    }

    #[test]
    fn retired_names_respect_scope_and_word_boundaries() {
        let only = &[LintRule::RetiredName];
        // The thread owners keep their scoped threads; nobody else, and no
        // manifest, may name the second substrate.
        let scoped = "std::thread::scope(|s| body(s));\n";
        assert!(lint_file("crates/runtime/src/comm.rs", scoped, only).is_empty());
        assert!(lint_file("crates/model/src/thread.rs", scoped, only).is_empty());
        assert_eq!(lint_file("crates/serve/src/job.rs", scoped, only).len(), 1);
        let dep = "rayon.workspace = true\n";
        assert_eq!(lint_file("crates/runtime/Cargo.toml", dep, only).len(), 1);
        // Test modules are not exempt.
        let in_tests = "#[cfg(test)]\nmod tests {\n    use rayon::prelude::*;\n}\n";
        assert_eq!(
            lint_file("crates/sparse/src/spmv.rs", in_tests, only).len(),
            1
        );
        // Live names that merely contain a retired one stay legal, as do
        // the historical env var and prose.
        for live in [
            "pool.try_run_batched(&plan, &mut y, 1, kernel)?;\n",
            "let out = try_reconstruct_distributed(&ops, &y, &config)?;\n",
            "fn rank_plans_use_the_plans_buffer_size() {\n",
            "let config = DistConfig { use_buffered: true, ..config };\n",
            "std::env::var(\"RAYON_NUM_THREADS\")\n",
            "// the rayon shim is gone\n",
        ] {
            let f = lint_file("crates/memxct/src/dist.rs", live, only);
            assert!(f.is_empty(), "must not fire on: {live} -> {f:?}");
        }
    }

    #[test]
    fn every_rule_fires_exactly_once_on_its_fixture() {
        let covered: std::collections::HashSet<LintRule> =
            FIXTURES.iter().map(|(r, _)| *r).collect();
        let missing: Vec<&LintRule> = LintRule::ALL
            .iter()
            .filter(|r| !covered.contains(r))
            .collect();
        assert!(
            missing.is_empty(),
            "rules without a mutation fixture: {missing:?}"
        );
        assert_eq!(
            FIXTURES.len(),
            LintRule::ALL.len(),
            "one fixture per rule, no extras"
        );
        for (rule, src) in FIXTURES {
            // The fixture trips its own rule exactly once...
            let f = lint_file("fixture.rs", src, &[*rule]);
            assert_eq!(f.len(), 1, "{rule:?} must fire once on its fixture: {f:?}");
            assert_eq!(f[0].rule, *rule);
            // ...and the named waiver silences it.
            let waived_src = format!("// lint: allow({}) fixture\n{}", rule.name(), src);
            let f = lint_file("fixture.rs", &waived_src, &[*rule]);
            assert!(f.is_empty(), "{rule:?} waiver must silence it: {f:?}");
        }
    }

    #[test]
    fn sync_facade_fires_on_raw_primitives_not_the_facade() {
        for bad in [
            "use std::sync::{Arc, Mutex};\n",
            "use std::sync::Condvar;\n",
            "let l: std::sync::RwLock<u8> = std::sync::RwLock::new(0);\n",
            "use parking_lot::Mutex;\n",
        ] {
            let f = lint_file("x.rs", bad, &[LintRule::SyncFacade]);
            assert_eq!(f.len(), 1, "must fire on: {bad}");
        }
        for good in [
            "use xct_model::sync::{Arc, Condvar, Mutex};\n",
            "use std::sync::atomic::{AtomicBool, Ordering};\n",
            "use std::sync::Arc;\n",
            "use std::sync::mpsc;\n",
        ] {
            let f = lint_file("x.rs", good, &[LintRule::SyncFacade]);
            assert!(f.is_empty(), "must not fire on: {good} -> {f:?}");
        }
    }

    #[test]
    fn sync_facade_scopes_to_model_checked_crates() {
        let fire = ["crates/runtime/src/pool.rs", "crates/serve/src/job.rs"];
        let skip = [
            "crates/model/src/sync.rs",
            "crates/memxct/src/lib.rs",
            "crates/obs/src/registry.rs",
        ];
        for rel in fire {
            let rules = rules_for(rel).expect("scanned");
            assert!(rules.contains(&LintRule::SyncFacade), "{rel}: {rules:?}");
        }
        for rel in skip {
            let rules = rules_for(rel).expect("scanned");
            assert!(!rules.contains(&LintRule::SyncFacade), "{rel}: {rules:?}");
        }
    }

    #[test]
    fn narrow_cast_fires_and_waives() {
        let f = lint_file("x.rs", "let a = b as u32;\n", &[LintRule::NarrowCast]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, LintRule::NarrowCast);
        assert_eq!(f[0].line, 1);

        let f = lint_file(
            "x.rs",
            "let a = b as u32; // in-range: b < ncols which fits u32\n",
            &[LintRule::NarrowCast],
        );
        assert!(f.is_empty(), "{f:?}");

        let f = lint_file(
            "x.rs",
            "// lint: allow(narrow-cast) blessed helper\nlet a = b as u16;\n",
            &[LintRule::NarrowCast],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn narrow_cast_needs_the_as_keyword() {
        // Mentions of the type alone are fine.
        let f = lint_file(
            "x.rs",
            "let a: u32 = 7;\nfn f(x: u16) {}\n",
            &[LintRule::NarrowCast],
        );
        assert!(f.is_empty(), "{f:?}");
        // `as usize` (widening) is fine.
        let f = lint_file("x.rs", "let a = b as usize;\n", &[LintRule::NarrowCast]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn no_panic_fires_on_unwrap_but_not_debug_assert() {
        let src = "pub fn f() {\n    x.unwrap();\n    debug_assert!(a < b);\n}\n";
        let f = lint_file("x.rs", src, &[LintRule::NoPanic]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);

        let src = "assert_eq!(a, b);\n";
        let f = lint_file("x.rs", src, &[LintRule::NoPanic]);
        assert_eq!(f.len(), 1, "{f:?}");

        let src = "x.unwrap(); // lint: allow(no-panic) documented panicking shim\n";
        let f = lint_file("x.rs", src, &[LintRule::NoPanic]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn strings_comments_and_test_modules_are_skipped() {
        let src = r#"
pub fn f() {
    let msg = "do not unwrap() here or panic!";
    // a comment mentioning x as u32 and unwrap()
    /* block comment: panic! as u16 */
}
#[cfg(test)]
mod tests {
    fn g() {
        oops.unwrap();
        let a = b as u32;
    }
}
"#;
        let f = lint_file("x.rs", src, ALL);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let src = "pub fn f() {\n    unsafe { g() }\n}\n";
        let f = lint_file("x.rs", src, &[LintRule::UnsafeCode]);
        assert_eq!(f.len(), 1, "{f:?}");

        let src = "pub fn f() {\n    // SAFETY: g has no preconditions\n    unsafe { g() }\n}\n";
        let f = lint_file("x.rs", src, &[LintRule::UnsafeCode]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn doc_examples_do_not_fire() {
        let src =
            "/// ```\n/// let x = v.unwrap();\n/// let y = x as u32;\n/// ```\npub fn f() {}\n";
        let f = lint_file("x.rs", src, ALL);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn char_literals_and_lifetimes_survive_stripping() {
        let mut in_block = false;
        let code = strip_code("if c == '\"' { x } else { y }", &mut in_block);
        assert!(!code.contains('"'));
        let code = strip_code("fn f<'a>(x: &'a str) -> &'a str { x }", &mut in_block);
        assert!(code.contains("'a"), "{code}");
    }

    #[test]
    fn whole_workspace_is_clean() {
        // The repository's own acceptance criterion: `xct-lint` passes on
        // the tree. CARGO_MANIFEST_DIR = crates/check, two levels down.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let findings = lint_tree(root);
        assert!(
            findings.is_empty(),
            "xct-lint found {} issue(s):\n{}",
            findings.len(),
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
