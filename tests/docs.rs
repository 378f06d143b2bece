//! The documents and the code agree: a citation of a design document
//! names one of its headings by title, and every command line README.md
//! shows runs something that exists.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: impl AsRef<Path>) -> String {
    let path = root().join(path);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, found);
        } else if path.extension().is_some_and(|e| e == "rs") {
            found.push(path);
        }
    }
}

/// The title of every markdown heading in `text`.
fn headings(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').trim())
        .collect()
}

/// The quoted title right after a document's name, as in
/// `DESIGN.md "Fault engine"`. A comment may wrap between the name and the
/// title, and a backslash may precede each quote (a citation inside a
/// string literal).
fn cited_title(after: &str) -> Option<&str> {
    let rest = after.trim_start_matches(['`', ' ', ',', '\\', '\n', '/', '!']);
    let (title, _) = rest.strip_prefix('"')?.split_once('"')?;
    Some(title.trim_end_matches('\\'))
}

/// A chapter cited by number silently moves when chapters are
/// renumbered; a cited title that stops existing fails here.
#[test]
fn doc_citations_name_an_existing_heading() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    let mut cited = 0;
    let mut broken = Vec::new();
    for doc in ["DESIGN", "EXPERIMENTS"].map(|name| format!("{name}.md")) {
        let text = read(&doc);
        let titles = headings(&text);
        for file in &files {
            let source = fs::read_to_string(file).expect("source file");
            for (at, _) in source.match_indices(&doc) {
                cited += 1;
                let after = &source[at + doc.len()..];
                if !cited_title(after).is_some_and(|t| titles.contains(&t)) {
                    let line = after.lines().next().unwrap_or_default();
                    broken.push(format!("{}: {doc}{line}", file.display()));
                }
            }
        }
    }
    assert!(
        cited > 0,
        "no citation found: is the scan looking in the right place?"
    );
    assert!(
        broken.is_empty(),
        "citations naming no heading:\n{}",
        broken.join("\n")
    );
}

/// Every `--bin` and `--example` README.md names is a real target, and
/// every `fluidmemctl` line in its code blocks parses.
#[test]
fn readme_commands_run_real_targets() {
    let readme = read("README.md");
    let bin_exists = |name: &str| {
        let crates = fs::read_dir(root().join("crates")).expect("crates/");
        let mut dirs = vec![root().join("src/bin")];
        dirs.extend(crates.map(|c| c.expect("crate").path().join("src/bin")));
        dirs.iter().any(|d| d.join(format!("{name}.rs")).is_file())
    };
    let (mut targets, mut commands) = (0, 0);
    let mut in_code = false;
    for line in readme.lines() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            continue;
        }
        let words: Vec<&str> = line
            .split_whitespace()
            .map(|w| w.trim_matches('`'))
            .collect();
        for pair in words.windows(2) {
            let exists = match pair[0] {
                "--bin" => bin_exists(pair[1]),
                "--example" => root().join(format!("examples/{}.rs", pair[1])).is_file(),
                _ => continue,
            };
            targets += 1;
            assert!(exists, "README.md names a missing target: {line}");
        }
        let ctl = words.iter().position(|w| w.ends_with("fluidmemctl"));
        let Some(at) = ctl.filter(|_| in_code) else {
            continue;
        };
        let args: Vec<String> = words[at + 1..]
            .iter()
            .skip_while(|w| **w == "--")
            .take_while(|w| !w.starts_with('#') && !matches!(**w, "|" | ">" | "&&"))
            .map(|w| w.to_string())
            .collect();
        commands += 1;
        if let Err(e) = fluidmem::cli::parse(&args) {
            panic!("README.md's `{line}` does not parse: {e}");
        }
    }
    assert!(targets > 0 && commands > 0, "README.md shows no commands");
}

/// The identifiers of `text`: every maximal run of letters, digits and
/// underscores.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The names of the `pub fn`s declared in `text`, `pub(crate)` ones left
/// out.
fn pub_fns(text: &str) -> Vec<&str> {
    let words: Vec<&str> = identifiers(text).collect();
    let mut names = Vec::new();
    for (i, _) in words.iter().enumerate().filter(|(_, w)| **w == "pub") {
        let mut rest = words[i + 1..].iter();
        let fn_at = rest.find(|w| !matches!(**w, "const" | "unsafe" | "async" | "extern"));
        if fn_at == Some(&"fn") {
            names.extend(rest.next());
        }
    }
    names
}

/// A crate's `pub` surface is what someone outside its library names:
/// another crate or bin, the crate's own bins, `src/`, `tests/`,
/// `examples/` or `fmbench/src/`. A `pub` item only its own crate calls
/// hides from rustc's `dead_code` lint, so it must be `pub(crate)` or
/// carry a reason here. Doc examples are not callers.
#[test]
fn every_pub_fn_is_named_outside_its_library() {
    /// `(crate, fn, why it stays pub)`.
    const ALLOWED: &[(&str, &str, &str)] = &[];
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "fmbench/src"] {
        rust_files(&root().join(dir), &mut files);
    }
    // This file names the allowed fns; it is not a caller.
    files.retain(|f| !f.ends_with(file!()));
    let texts: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(f).expect("source file"))
        .collect();
    let sources: Vec<(&PathBuf, HashSet<&str>)> = files
        .iter()
        .zip(&texts)
        .map(|(f, text)| (f, identifiers(text).collect()))
        .collect();
    let (mut declared, mut unnamed) = (0, Vec::new());
    for entry in fs::read_dir(root().join("crates")).expect("crates/") {
        let crate_dir = entry.expect("crate").path();
        let name = crate_dir.file_name().expect("crate name").to_string_lossy();
        let lib = crate_dir.join("src");
        let in_lib = |f: &Path| f.starts_with(&lib) && !f.starts_with(lib.join("bin"));
        let mut fns: Vec<&str> = (files.iter().zip(&texts))
            .filter(|(f, _)| in_lib(f))
            .flat_map(|(_, text)| pub_fns(text))
            .collect();
        fns.sort_unstable();
        fns.dedup();
        declared += fns.len();
        for f in fns {
            let named = sources.iter().any(|(p, ids)| !in_lib(p) && ids.contains(f));
            if !named && !ALLOWED.iter().any(|&(c, n, _)| c == name && n == f) {
                unnamed.push(format!("{name}::{f}"));
            }
        }
    }
    unnamed.sort();
    assert!(
        declared > 100,
        "found {declared} pub fns: is the scan looking in the right place?"
    );
    assert!(
        unnamed.is_empty(),
        "{} pub fns named nowhere outside their library (make them pub(crate), or allow one with a reason):\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );
}
