//! The workspace's panic budget, ratcheted: per crate, the panic sites in
//! library code — `.unwrap()`, `.expect(`, `panic!`, `unreachable!`,
//! `todo!` and `unimplemented!` in each file under `src/` (binary targets
//! excluded) before its first `#[cfg(test)]` — must equal the pinned
//! count. A higher count fails. So does a lower one, until the pin is
//! lowered to match in the same change: counts only go down.

use std::collections::BTreeMap;
use std::path::Path;

#[path = "common/source.rs"]
mod source;

use source::{before_tests, code_only, rust_files, source_dirs};

/// Pinned panic sites per crate directory (`.` is the root package).
const PINS: &[(&str, usize)] = &[
    (".", 0),
    ("crates/bench", 15),
    ("crates/cluster", 1),
    ("crates/core", 2),
    ("crates/crosschain", 2),
    ("crates/crypto", 1),
    ("crates/datalog", 1),
    ("crates/fabric", 17),
    ("crates/gateway", 5),
    ("crates/shard", 0),
    ("crates/simnet", 1),
    ("crates/statedb", 14),
    ("crates/store", 1),
    ("crates/supplychain", 4),
    ("crates/telemetry", 16),
    ("crates/workload", 12),
    ("shims/criterion", 1),
    ("shims/proptest", 10),
    ("shims/rand", 0),
];

/// Panic sites in `code` (already blanked by `code_only`).
fn panic_sites(code: &str) -> usize {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let methods = [".unwrap()", ".expect("]
        .iter()
        .map(|m| code.matches(m).count())
        .sum::<usize>();
    let macros = ["panic!", "unreachable!", "todo!", "unimplemented!"]
        .iter()
        .map(|m| {
            code.match_indices(m)
                .filter(|(at, _)| !ident(code[..*at].chars().next_back()))
                .count()
        })
        .sum::<usize>();
    methods + macros
}

/// Panic sites per crate directory, relative to `root`.
fn inventory(root: &Path) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for dir in source_dirs(root) {
        let krate = dir.parent().expect("src has a parent");
        let name = match krate.strip_prefix(root).expect("under the repo") {
            rel if rel.as_os_str().is_empty() => ".".to_string(),
            rel => rel.to_string_lossy().replace('\\', "/"),
        };
        let mut files = Vec::new();
        rust_files(&dir, &mut files);
        let library = files
            .iter()
            .filter(|path| !path.starts_with(dir.join("bin")) && !path.ends_with("src/main.rs"));
        let mut total = 0;
        for path in library {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            total += panic_sites(&before_tests(&code_only(&text)));
        }
        counts.insert(name, total);
    }
    counts
}

#[test]
fn panic_sites_are_counted_in_code_only() {
    let sample = r##"
        // x.unwrap() in a comment, panic!("no")
        let s = "y.expect(\"quoted\") todo!()";
        let a = x.unwrap();
        let b = y
            .expect("one");
        let c = z.unwrap_or(0).expect_err("not a site");
        my_panic!(); core::panic!("two"); unreachable!(); todo!(); unimplemented!();
        #[cfg(test)]
        mod tests { fn t() { q.unwrap(); } }
    "##;
    assert_eq!(panic_sites(&before_tests(&code_only(sample))), 6);
}

#[test]
fn panic_sites_only_go_down() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let found = inventory(root);
    let pinned: BTreeMap<String, usize> = PINS.iter().map(|&(k, n)| (k.to_string(), n)).collect();
    let mut problems = Vec::new();
    for (krate, &n) in &found {
        match pinned.get(krate) {
            None => problems.push(format!(
                "{krate}: {n} sites, no pin — add (\"{krate}\", {n})"
            )),
            Some(&pin) if n > pin => problems.push(format!(
                "{krate}: {n} sites, pinned {pin} — remove the {} new one(s)",
                n - pin
            )),
            Some(&pin) if n < pin => problems.push(format!(
                "{krate}: {n} sites, pinned {pin} — lower the pin to {n}"
            )),
            Some(_) => {}
        }
    }
    for krate in pinned.keys().filter(|k| !found.contains_key(*k)) {
        problems.push(format!("{krate}: pinned, but no such crate"));
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
