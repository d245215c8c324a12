//! The source scan the inventory tests share: which files make up the
//! workspace's crates, and their text with comments and literals blanked
//! so that only code is searched. Included by path from
//! `tests/unsafe_inventory.rs`, `tests/panic_inventory.rs`,
//! `tests/config_inventory.rs` and `tests/uncalled_api_inventory.rs`.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The source directories the inventory covers.
pub fn source_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("src")];
    for parent in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(parent)).expect("read crates/shims") {
            let src = entry.expect("directory entry").path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    dirs.sort();
    dirs
}

/// `text` with comments, string literals and char literals blanked to
/// spaces (newlines kept), so only code is left to search.
pub fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while i < chars.len() {
        let at = |j: usize| chars.get(j).copied().unwrap_or('\0');
        let start = i;
        if at(i) == '/' && at(i + 1) == '/' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if at(i) == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            loop {
                match (at(i), at(i + 1)) {
                    ('/', '*') => (depth, i) = (depth + 1, i + 2),
                    ('*', '/') => (depth, i) = (depth - 1, i + 2),
                    ('\0', _) => break,
                    _ => i += 1,
                }
                if depth == 0 {
                    break;
                }
            }
        } else if at(i) == 'r'
            && matches!(at(i + 1), '"' | '#')
            && (i == 0 || !ident(at(i - 1)) || at(i - 1) == 'b')
        {
            // Raw string `r#"…"#` (also `br…`): ends at `"` plus as many `#`.
            let hashes = (i + 1..).take_while(|&j| at(j) == '#').count();
            if at(i + 1 + hashes) != '"' {
                out.push(chars[i]);
                i += 1;
                continue;
            }
            i += hashes + 2;
            while i < chars.len() && !(at(i) == '"' && (1..=hashes).all(|h| at(i + h) == '#')) {
                i += 1;
            }
            i += hashes + 1;
        } else if at(i) == '"' {
            i += 1;
            while i < chars.len() && at(i) != '"' {
                i += if at(i) == '\\' { 2 } else { 1 };
            }
            i += 1;
        } else if at(i) == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A char literal; a lone `'` is a lifetime and stays.
            i += if at(i + 1) == '\\' { 2 } else { 1 };
            while i < chars.len() && at(i) != '\'' {
                i += 1;
            }
            i += 1;
        } else {
            out.push(chars[i]);
            i += 1;
            continue;
        }
        for &c in &chars[start..i.min(chars.len())] {
            blank(&mut out, c);
        }
    }
    out
}

/// `code` up to the first line that opens a `#[cfg(test)]` item: the
/// library part of a source file.
#[allow(dead_code)] // the unsafe and config inventories scan whole files
pub fn before_tests(code: &str) -> String {
    code.lines()
        .take_while(|line| {
            !line
                .replace(char::is_whitespace, "")
                .contains("#[cfg(test)]")
        })
        .collect::<Vec<_>>()
        .join("\n")
}
