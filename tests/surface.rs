//! Each crate's `lib.rs` is its whole public surface, and the surface
//! holds only what somebody outside the crate names. `rustc` cannot see
//! across crates that a re-export has no user, so this test reads the
//! sources: every name in a `pub use` list of `crates/*/src/lib.rs` must
//! be a word in some `.rs` file outside that crate's `src/` (its
//! `src/bin/` counts as outside), and the only `pub mod`s are the six
//! that `perf/` or a `dio-bench` bin names by path.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Modules named by path from `perf/` (which no PR but a benchmark PR
/// may edit) or from the bench bins.
const PATH_NAMED: [&str; 6] = [
    "bench/artifact",
    "bench/drill",
    "bench/selfobs",
    "benchmark/eval",
    "copilot/obs",
    "copilot/pipeline",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

#[test]
fn every_reexport_is_named_outside_its_crate_and_modules_are_private() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perf/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let sources: Vec<(PathBuf, String)> =
        files.into_iter().map(|f| (f.clone(), fs::read_to_string(f).unwrap())).collect();

    let mut failures = Vec::new();
    let mut public_modules = BTreeSet::new();
    for (lib_path, lib) in &sources {
        let Ok(in_crates) = lib_path.strip_prefix(root.join("crates")) else { continue };
        let Some(krate) = in_crates.to_str().and_then(|p| p.strip_suffix("/src/lib.rs")) else { continue };
        let src = lib_path.parent().unwrap();
        let outside: BTreeSet<&str> = sources
            .iter()
            .filter(|(p, _)| !p.starts_with(src) || p.starts_with(src.join("bin")))
            .flat_map(|(_, text)| words(text))
            .collect();
        // A re-export's name is the last word of its item: the last path
        // segment, or the alias after `as`.
        for stmt in lib.split("\npub use ").skip(1) {
            let stmt = &stmt[..stmt.find(';').expect("`pub use` ends in `;`")];
            let items = stmt.rsplit_once('{').map_or(stmt, |(_, list)| list);
            for name in items.split(',').filter_map(|item| words(item).last()) {
                if !outside.contains(name) {
                    failures.push(format!("dio-{krate} re-exports `{name}`, which no file outside its src/ names"));
                }
            }
        }
        for module in lib.lines().filter_map(|l| l.strip_prefix("pub mod ")) {
            public_modules.insert(format!("{krate}/{}", words(module).next().unwrap()));
        }
    }
    if !public_modules.iter().map(String::as_str).eq(PATH_NAMED) {
        failures.push(format!("public modules are {public_modules:?}, expected exactly {PATH_NAMED:?}"));
    }
    assert!(failures.is_empty(), "{} surface violations:\n{}", failures.len(), failures.join("\n"));
}

/// `dio-tsdb` is the storage leaf: the WAL and its frame format live in
/// it, and it depends on no other workspace crate.
#[test]
fn the_tsdb_crate_depends_on_no_workspace_crate() {
    let manifest = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/tsdb/Cargo.toml")).unwrap();
    let dependencies = manifest
        .split("\n[")
        .find(|table| table.starts_with("dependencies]"))
        .expect("crates/tsdb/Cargo.toml has a [dependencies] table");
    let workspace: Vec<&str> = dependencies.lines().skip(1).filter(|line| line.trim_start().starts_with("dio-")).collect();
    assert!(workspace.is_empty(), "dio-tsdb depends on {workspace:?}");
}

/// Every `--bin <name>` the docs or CI tell a reader to run names a
/// binary of `dio-bench`, so deleting or renaming a bin cannot leave a
/// dead command behind. `<name>` itself is a placeholder.
#[test]
fn every_bin_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bins = root.join("crates/bench/src/bin");
    let docs = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ];
    let mut failures = Vec::new();
    for doc in docs {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        let mut tokens = text.split_whitespace();
        while tokens.find(|&t| t == "--bin").is_some() {
            let next = tokens.next().filter(|t| !t.starts_with('<'));
            let Some(name) = next.and_then(|t| words(t).next()) else {
                continue;
            };
            if !bins.join(format!("{name}.rs")).is_file() {
                failures.push(format!("{doc} names `--bin {name}`, which dio-bench lacks"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
