//! DESIGN.md names every source file, and no other: each
//! `crates/*/src/**/*.rs` and `tests/*.rs` file must appear in a bullet
//! that opens with its directory in backticks, as in the "Module map"
//! and "Testing strategy" sections, and every `.rs` path those bullets
//! name must exist:
//!
//! ```text
//! - `crates/num/src/` (`ahfic-num`): `lib.rs`; `sparse.rs` (…); …
//! ```

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Every file DESIGN.md names: in each bullet that opens with a
/// backticked directory, every backticked `.rs` name joined to it.
fn named_files(design: &str) -> BTreeSet<String> {
    let mut named = BTreeSet::new();
    let mut dir = None;
    for line in design.lines() {
        if line.starts_with("- ") || line.starts_with('#') || line.trim().is_empty() {
            dir = line
                .strip_prefix("- `")
                .and_then(|rest| rest.split('`').next())
                .filter(|d| d.ends_with('/'));
        }
        if let Some(dir) = dir {
            let spans = line.split('`').skip(1).step_by(2);
            for name in spans.filter(|t| t.ends_with(".rs")) {
                named.insert(format!("{dir}{name}"));
            }
        }
    }
    named
}

/// Appends the `.rs` files under `dir` (recursively when `deep`), as
/// paths relative to `root`.
fn rs_files(root: &Path, dir: &Path, deep: bool, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if deep {
                rs_files(root, &path, deep, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn every_source_and_test_file_is_named_in_design_md() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let named = named_files(&fs::read_to_string(root.join("DESIGN.md")).unwrap());
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rs_files(root, &src, true, &mut files);
        }
    }
    rs_files(root, &root.join("tests"), false, &mut files);
    files.sort();
    let missing: Vec<&String> = files.iter().filter(|f| !named.contains(*f)).collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md names none of these {} of {} files:\n{}",
        missing.len(),
        files.len(),
        missing
            .iter()
            .map(|f| f.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_file_named_in_design_md_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let named = named_files(&fs::read_to_string(root.join("DESIGN.md")).unwrap());
    let stale: Vec<&str> = named
        .iter()
        .filter(|f| !root.join(f).is_file())
        .map(|f| f.as_str())
        .collect();
    assert!(
        stale.is_empty(),
        "DESIGN.md names {} of its {} files that do not exist:\n{}",
        stale.len(),
        named.len(),
        stale.join("\n")
    );
}
