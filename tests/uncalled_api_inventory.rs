//! The workspace's uncalled public functions, ratcheted: a library
//! `pub fn` — in each file under `src/` or `crates/*/src` (binary targets
//! excluded) before its first `#[cfg(test)]` — whose name appears nowhere
//! else in code is an API nothing calls. "Elsewhere" is every `.rs` file
//! under `src/`, `crates/`, `tests/`, `examples/`, `shims/` and
//! `lvbench/src`, with comments and literals blanked, tests included. The
//! count must equal the pin: a higher count fails, and so does a lower one
//! until the pin is lowered to match in the same change.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::path::Path;

#[path = "common/source.rs"]
mod source;

use source::{before_tests, code_only, rust_files, source_dirs};

/// Pinned number of uncalled library `pub fn`s.
const PIN: usize = 0;

/// Names the lexer misjudges as uncalled, each with why it is called.
const ALLOWED: &[(&str, &str)] = &[];

/// Identifiers in `code` (already blanked by `code_only`), in order.
fn idents(code: &str) -> Vec<&str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
        .collect()
}

/// The name of every `pub fn` (also `pub const fn` and the like) defined
/// in `code`; `pub(crate) fn` and trait-impl methods are not public API.
fn pub_fns(code: &str) -> Vec<&str> {
    let tokens = idents(code);
    let mut names = Vec::new();
    for (i, _) in tokens.iter().enumerate().filter(|(_, t)| **t == "pub") {
        let mut rest = tokens[i + 1..].iter();
        let mut next = rest.next();
        while next.is_some_and(|t| matches!(*t, "const" | "async" | "unsafe")) {
            next = rest.next();
        }
        if next == Some(&"fn") {
            names.extend(rest.next());
        }
    }
    names
}

/// How often each `pub fn` name is defined in library code under `root`.
fn library_pub_fns(root: &Path) -> BTreeMap<String, usize> {
    let mut defined = BTreeMap::new();
    let shims = root.join("shims");
    for dir in source_dirs(root).iter().filter(|d| !d.starts_with(&shims)) {
        let mut files = Vec::new();
        rust_files(dir, &mut files);
        let library = files
            .iter()
            .filter(|path| !path.starts_with(dir.join("bin")) && !path.ends_with("src/main.rs"));
        for path in library {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            for name in pub_fns(&before_tests(&code_only(&text))) {
                *defined.entry(name.to_string()).or_insert(0) += 1;
            }
        }
    }
    defined
}

/// How often each identifier occurs in code anywhere under `root`.
fn identifier_counts(root: &Path) -> BTreeMap<String, usize> {
    let mut files = Vec::new();
    for dir in ["src", "crates", "tests", "examples", "shims", "lvbench/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut seen = BTreeMap::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        for name in idents(&code_only(&text)) {
            *seen.entry(name.to_string()).or_insert(0) += 1;
        }
    }
    seen
}

/// Library `pub fn`s whose every occurrence in code is a definition.
fn uncalled(root: &Path) -> Vec<String> {
    let seen = identifier_counts(root);
    library_pub_fns(root)
        .into_iter()
        .filter(|(name, n)| seen.get(name) == Some(n))
        .filter(|(name, _)| !ALLOWED.iter().any(|(allowed, _)| allowed == name))
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn pub_fns_are_found_in_code_only() {
    let sample = r##"
        // pub fn in_comment() {}
        let s = "pub fn in_string() {}";
        pub fn plain() {}
        pub const fn konst() -> u8 { 0 }
        pub(crate) fn crate_only() {}
        impl Trait for X { fn method(&self) {} }
        #[cfg(test)]
        mod tests { pub fn helper() {} }
    "##;
    assert_eq!(
        pub_fns(&before_tests(&code_only(sample))),
        ["plain", "konst"]
    );
}

#[test]
fn uncalled_pub_fns_only_go_down() {
    let found = uncalled(Path::new(env!("CARGO_MANIFEST_DIR")));
    let n = found.len();
    match n.cmp(&PIN) {
        Ordering::Greater => {
            panic!("{n} uncalled pub fn(s), pinned {PIN} — delete or call {found:?}")
        }
        Ordering::Less => panic!("{n} uncalled pub fn(s), pinned {PIN} — lower the pin to {n}"),
        Ordering::Equal => {}
    }
}
