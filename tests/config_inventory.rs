//! The workspace's configuration surface, ratcheted: each config type
//! below must have exactly its pinned number of `pub` fields. Every field
//! is a value a caller can set, and every settable value multiplies the
//! configurations tests and benchmarks must cover. A change that removes a
//! field lowers the pin in the same change. A change that adds one raises
//! the pin and names the two non-test callers that need different values.

use std::path::Path;

#[path = "common/source.rs"]
mod source;

use source::{code_only, rust_files, source_dirs};

/// Pinned `pub` field count per config type.
const PINS: &[(&str, usize)] = &[
    ("BlockCuttingConfig", 3),
    ("ClusterConfig", 18),
    ("LsmConfig", 10),
    ("NetworkConfig", 7),
    ("RaftConfig", 3),
    ("ReorderConfig", 1),
    ("ServiceTimes", 8),
    ("ShardConfig", 5),
    ("StorageConfig", 3),
    ("TpccConfig", 8),
    ("ValidationConfig", 2),
];

/// The `pub` field count of every `struct name { … }` defined in `code`
/// (already blanked by `code_only`), one entry per definition.
fn pub_fields(code: &str, name: &str) -> Vec<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let header = format!("struct {name}");
    let mut found = Vec::new();
    for (at, _) in code.match_indices(&header) {
        let rest = &code[at + header.len()..];
        let starts_word = !code[..at].chars().next_back().is_some_and(ident);
        let body = rest.trim_start();
        if !starts_word || rest.starts_with(ident) || !body.starts_with('{') {
            continue;
        }
        let (mut depth, mut fields) = (0, 0);
        for line in body.lines() {
            if depth == 1 && line.trim_start().starts_with("pub ") {
                fields += 1;
            }
            depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
            if depth <= 0 {
                break;
            }
        }
        found.push(fields);
    }
    found
}

#[test]
fn pub_fields_are_counted_in_code_only() {
    let sample = r##"
        /// pub docs: not a field
        pub struct Cfg {
            pub a: u32, // pub b: u32

            pub(crate) c: u32,
            d: u32,
            pub e: Vec<(String, u64)>,
            pub f: Inner,
        }
        pub struct CfgTwo { pub z: u8 }
        struct Cfg;
    "##;
    assert_eq!(pub_fields(&code_only(sample), "Cfg"), [3]);
}

#[test]
fn config_fields_match_their_pins() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in source_dirs(root) {
        rust_files(&dir, &mut files);
    }
    let code: Vec<String> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            code_only(&text)
        })
        .collect();
    let mut problems = Vec::new();
    for &(name, pin) in PINS {
        let found: Vec<usize> = code.iter().flat_map(|c| pub_fields(c, name)).collect();
        match found[..] {
            [n] if n == pin => {}
            [n] if n < pin => problems.push(format!(
                "{name}: {n} pub fields, pinned {pin} — lower the pin to {n}"
            )),
            [n] => problems.push(format!(
                "{name}: {n} pub fields, pinned {pin} — raise the pin only with two \
                 non-test callers that need different values"
            )),
            _ => problems.push(format!(
                "{name}: {} definitions found, expected one",
                found.len()
            )),
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
