//! The public surface of `memxct` cannot regrow silently: every name
//! re-exported from `lib.rs` and `prelude.rs` is listed, sorted, in
//! `API_SURFACE.txt`. A new (or removed) name fails here until the
//! snapshot is edited in the same change, where a reviewer sees it.

/// The names `src` re-exports through its `pub use …;` items, each
/// prefixed with `module`.
fn reexports(module: &str, src: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find("\npub use ") {
        let item = &rest[at + "\npub use ".len()..];
        let end = item.find(';').expect("unterminated `pub use`");
        // `path::{a, b as c}` or `path::a [as c]`.
        let list = match item[..end].split_once('{') {
            Some((_, list)) => list.trim_end_matches('}'),
            None => item[..end].rsplit("::").next().unwrap_or_default(),
        };
        for entry in list.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let name = entry.rsplit(" as ").next().unwrap_or(entry);
            names.push(format!("{module}::{name}"));
        }
        rest = &item[end..];
    }
    names
}

#[test]
fn reexported_names_match_the_committed_snapshot() {
    let (lib, prelude) = (
        include_str!("../src/lib.rs"),
        include_str!("../src/prelude.rs"),
    );
    let mut names = reexports("memxct", lib);
    names.extend(reexports("memxct::prelude", prelude));
    names.sort();
    let snapshot: Vec<&str> = include_str!("../API_SURFACE.txt").lines().collect();
    let fix = "update crates/memxct/API_SURFACE.txt in the same change";
    assert_eq!(names, snapshot, "public surface changed: {fix}");
}
