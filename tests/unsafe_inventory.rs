//! The workspace's `unsafe` budget, checked: every crate root under
//! `src/`, `crates/*/src` and `shims/*/src` forbids or denies
//! `unsafe_code`, and the only `unsafe` in their code is five named
//! calls: AES-CTR's into its AES-NI body, Ed25519's into its AVX-512 IFMA
//! point body, SHA-256's into its SHA-extension body, X25519's into its
//! AVX-512 IFMA ladder body and CRC-32's into its carry-less-multiply
//! body.
//! Each is one `#[allow(unsafe_code)]`, one `unsafe {` block, and a
//! `// SAFETY:` comment directly above them.

use std::path::Path;

#[path = "common/source.rs"]
mod source;

use source::{code_only, rust_files, source_dirs};

/// `(line number, what)` for each `unsafe {`, `unsafe fn`, `unsafe impl`,
/// `unsafe trait`, `unsafe extern` and `allow(unsafe_code)` in `code`.
fn unsafe_sites(code: &str) -> Vec<(usize, String)> {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut sites = Vec::new();
    for (n, line) in code.lines().enumerate() {
        let squeezed = line.replace(char::is_whitespace, "");
        if squeezed.contains("allow(") && squeezed.contains("unsafe_code") {
            sites.push((n + 1, "allow(unsafe_code)".to_string()));
        }
        for (at, _) in line.match_indices("unsafe") {
            let before = line[..at].chars().next_back();
            let rest = &line[at + "unsafe".len()..];
            if ident(before) || ident(rest.chars().next()) {
                continue;
            }
            let next = rest.trim_start();
            let what = ["{", "fn", "impl", "trait", "extern"]
                .into_iter()
                .find(|kw| {
                    next.starts_with(kw) && (*kw == "{" || !ident(next[kw.len()..].chars().next()))
                });
            if let Some(kw) = what {
                sites.push((n + 1, format!("unsafe {kw}")));
            }
        }
    }
    sites.sort();
    sites
}

#[test]
fn code_only_ignores_comments_strings_and_chars() {
    let sample = r##"
        // unsafe { in a comment }
        /* unsafe fn /* nested */ unsafe impl */
        let s = "unsafe rule: unsafe { }";
        let r = r#"unsafe fn "quoted" "#;
        let q = '"'; let e = '\''; fn f<'a>(x: &'a u8) {}
        #[allow(unsafe_code)]
        unsafe impl Send for X {}
        let unsafe_rule = 1;
    "##;
    let sites = unsafe_sites(&code_only(sample));
    let found: Vec<&str> = sites.iter().map(|(_, what)| what.as_str()).collect();
    assert_eq!(found, ["allow(unsafe_code)", "unsafe impl"]);
    assert_eq!(sites[0].0 + 1, sites[1].0);
}

#[test]
fn the_only_unsafe_is_the_five_hardware_dispatches() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in source_dirs(root) {
        rust_files(&dir, &mut files);
    }
    files.sort();
    assert!(files.len() > 100, "scanned only {} files", files.len());

    let mut found = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let rel = path
            .strip_prefix(root)
            .expect("under the repo")
            .to_string_lossy()
            .replace('\\', "/");
        // `src/lib.rs`, `src/main.rs` and each `src/bin/*.rs` start a crate.
        let parent = path.parent().expect("a file has a parent");
        let crate_root = parent.ends_with("src/bin")
            || (parent.ends_with("src")
                && matches!(
                    path.file_name().and_then(|n| n.to_str()),
                    Some("lib.rs" | "main.rs")
                ));
        if crate_root {
            let code = code_only(&text).replace(char::is_whitespace, "");
            assert!(
                code.contains("#![forbid(unsafe_code)]") || code.contains("#![deny(unsafe_code)]"),
                "crate root {rel} neither forbids nor denies unsafe_code"
            );
        }
        for (line, what) in unsafe_sites(&code_only(&text)) {
            found.push((rel.clone(), line, what));
        }
    }

    // Each site, in path order as `found` is: the allow, the block on the
    // next line, and a `// SAFETY:` comment directly above both.
    let sites = [
        "crates/crypto/src/ctr.rs",
        "crates/crypto/src/ed25519.rs",
        "crates/crypto/src/sha256.rs",
        "crates/crypto/src/x25519.rs",
        "crates/store/src/crc32.rs",
    ];
    let whats: Vec<(&str, &str)> = found
        .iter()
        .map(|(f, _, w)| (f.as_str(), w.as_str()))
        .collect();
    let expected: Vec<(&str, &str)> = sites
        .iter()
        .flat_map(|&site| [(site, "allow(unsafe_code)"), (site, "unsafe {")])
        .collect();
    assert_eq!(
        whats, expected,
        "unsafe outside the five allowed sites: {found:?}"
    );
    for (site, pair) in sites.iter().zip(found.chunks_exact(2)) {
        let (allow, block) = (pair[0].1, pair[1].1);
        assert_eq!(
            allow + 1,
            block,
            "{site}: the allow must sit on the unsafe block"
        );
        let text = std::fs::read_to_string(root.join(site)).expect("read an allowed site");
        let lines: Vec<&str> = text.lines().collect();
        let comment: Vec<&str> = lines[..allow - 1]
            .iter()
            .rev()
            .map(|l| l.trim())
            .take_while(|l| l.starts_with("//"))
            .collect();
        assert!(
            comment
                .last()
                .is_some_and(|first| first.starts_with("// SAFETY:")),
            "no `// SAFETY:` comment directly above {site}:{allow}"
        );
    }
}
