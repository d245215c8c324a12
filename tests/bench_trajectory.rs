//! `BENCH_pipeline.json` is appended by hand in every perf PR; this keeps it
//! a file a tool can read: well-formed JSON, the declared schema, and every
//! record covering every workload and end-to-end metric that
//! `BENCHMARK.json` declares.

mod common;
use common::check_json;

fn read(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    check_json(&text).unwrap_or_else(|at| panic!("{name} is not JSON from byte {at}"));
    text
}

/// The bracketed value that opens at `text[0]` (`{` or `[`), through its
/// matching close. `text` is well-formed, so only strings need skipping.
fn enclosed(text: &str) -> &str {
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, b) in text.bytes().enumerate() {
        match b {
            _ if escaped => escaped = false,
            b'\\' if in_string => escaped = true,
            b'"' => in_string = !in_string,
            _ if in_string => {}
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return &text[..=i];
                }
            }
            _ => {}
        }
    }
    panic!("unclosed bracket");
}

/// The array stored under `key` at its first occurrence in `doc`.
fn array<'a>(doc: &'a str, key: &str) -> &'a str {
    let key = format!("\"{key}\": [");
    let at = doc.find(&key).unwrap_or_else(|| panic!("no {key}"));
    enclosed(&doc[at + key.len() - 1..])
}

/// The top-level objects of an array.
fn objects(array: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = &array[1..];
    while let Some(at) = rest.find('{') {
        let object = enclosed(&rest[at..]);
        out.push(object);
        rest = &rest[at + object.len()..];
    }
    out
}

/// The `"name"` of each object of the array under `key` in BENCHMARK.json.
fn declared_names(benchmark: &str, key: &str) -> Vec<String> {
    objects(array(benchmark, key))
        .iter()
        .map(|object| {
            let value = object
                .split_once("\"name\": \"")
                .expect("a declared entry has a name")
                .1;
            value[..value.find('"').unwrap()].to_string()
        })
        .collect()
}

#[test]
fn bench_trajectory_records_cover_the_declared_benchmark() {
    let benchmark = read("BENCHMARK.json");
    let workloads = declared_names(&benchmark, "workloads");
    let metrics = declared_names(&benchmark, "end_to_end");
    assert_eq!((workloads.len(), metrics.len()), (4, 5));

    let trajectory = read("BENCH_pipeline.json");
    assert!(trajectory.contains("\"schema\": \"bench_pipeline/v1\""));
    let records = objects(array(&trajectory, "records"));
    assert!(!records.is_empty());
    for record in records {
        let commit = record.lines().nth(1).unwrap_or(record).trim();
        assert!(
            commit.starts_with("\"commit\": \""),
            "record opens with {commit}"
        );
        for workload in &workloads {
            let key = format!("\"{workload}\": {{");
            let at = record
                .find(&key)
                .unwrap_or_else(|| panic!("{commit} lacks workload {workload}"));
            let body = enclosed(&record[at + key.len() - 1..]);
            for metric in &metrics {
                assert!(
                    body.contains(&format!("\"{metric}\": ")),
                    "{commit} {workload} lacks {metric}"
                );
            }
        }
    }
}
