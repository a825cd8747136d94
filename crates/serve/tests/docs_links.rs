//! Documentation link lint: every relative markdown link in `README.md`
//! and `docs/*.md` must resolve to a file in the repository. External
//! (`http…`) links and intra-page `#anchors` are skipped — this is a
//! drift check for the doc set, not a crawler.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/serve -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the repo root")
        .to_path_buf()
}

/// Extracts `(target)` of every inline markdown link `[text](target)` in
/// `text`. Good enough for this doc set: no nested brackets, no reference
/// links, code spans containing `](` do not occur.
fn link_targets(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(rel_end) = text[start..].find(')') {
                out.push(text[start..start + rel_end].to_string());
                i = start + rel_end;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn relative_doc_links_resolve() {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    entries.sort();
    files.extend(entries);
    assert!(files.len() > 4, "doc set went missing: {files:?}");

    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let base = file.parent().unwrap();
        for target in link_targets(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
            {
                continue;
            }
            let path = target.split('#').next().unwrap();
            if path.is_empty() {
                continue;
            }
            if !base.join(path).exists() {
                broken.push(format!("{}: ({target})", file.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}

/// The three serve documents exist and cross-reference each other — the
/// protocol spec, the production guide, and the monitoring runbook are one
/// set and must not drift apart.
#[test]
fn serve_doc_set_is_complete() {
    let docs = repo_root().join("docs");
    for name in ["SERVE.md", "PRODUCTION.md", "MONITORING.md"] {
        let text = std::fs::read_to_string(docs.join(name))
            .unwrap_or_else(|e| panic!("docs/{name} missing: {e}"));
        for other in ["SERVE.md", "PRODUCTION.md", "MONITORING.md"] {
            if other != name {
                assert!(
                    text.contains(other),
                    "docs/{name} does not reference {other}"
                );
            }
        }
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if entry.is_dir() {
            rust_sources(&entry, out);
        } else if entry.extension().is_some_and(|x| x == "rs") {
            out.push(entry);
        }
    }
}

/// If `text` starts (after whitespace) with a string literal, the literal's
/// contents and the text after its closing quote.
fn leading_literal(text: &str) -> Option<(&str, &str)> {
    let body = text.trim_start().strip_prefix('"')?;
    let end = body.find('"')?;
    Some((&body[..end], &body[end + 1..]))
}

/// Every trace record the workspace can emit, as `(macro, name)`: the
/// `span!` / `counter!` / `event!` invocations under `crates/*/src` whose
/// category and name are string literals. hh-trace itself is skipped — the
/// macros' own crate holds their definitions, doc examples and unit tests.
fn emitted_records() -> std::collections::BTreeSet<(&'static str, String)> {
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if krate.file_name().unwrap() != "trace" && krate.join("src").is_dir() {
            rust_sources(&krate.join("src"), &mut sources);
        }
    }
    let mut emitted = std::collections::BTreeSet::new();
    for file in sources {
        let text = std::fs::read_to_string(&file).unwrap();
        for kind in ["span", "counter", "event"] {
            let call = format!("{kind}!(");
            for (pos, _) in text.match_indices(&call) {
                let args = &text[pos + call.len()..];
                let Some((_cat, rest)) = leading_literal(args) else {
                    continue;
                };
                let Some(rest) = rest.trim_start().strip_prefix(',') else {
                    continue;
                };
                if let Some((name, _)) = leading_literal(rest) {
                    emitted.insert((kind, name.to_string()));
                }
            }
        }
    }
    emitted
}

/// The backticked first-column names of the table under the `## ` heading
/// of `doc` that contains `heading`.
fn table_rows(doc: &str, heading: &str) -> Vec<String> {
    let section = doc
        .split("\n## ")
        .find(|s| s.lines().next().unwrap().contains(heading))
        .unwrap_or_else(|| panic!("no `## ` section for {heading}"));
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split_once('`'))
        .map(|(name, _)| name.to_string())
        .collect()
}

/// TRACE_SCHEMA.md's Spans, Instants and Counters tables name exactly the
/// records the sources emit through `span!`, `event!` and `counter!`: a
/// new record cannot ship undocumented, and a row cannot outlive the code
/// that emitted it.
#[test]
fn trace_vocabulary_matches_docs() {
    let schema = std::fs::read_to_string(repo_root().join("docs/TRACE_SCHEMA.md")).unwrap();
    let emitted = emitted_records();
    for (kind, heading) in [
        ("span", "Spans"),
        ("event", "Instants"),
        ("counter", "Counters"),
    ] {
        let code: Vec<String> = emitted
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, name)| name.clone())
            .collect();
        assert!(code.len() >= 5, "{kind}! scan found only {code:?}");
        let mut rows = table_rows(&schema, heading);
        rows.sort();
        assert_eq!(
            rows, code,
            "TRACE_SCHEMA.md `## {heading}` rows vs the {kind}! literals under crates/*/src"
        );
    }
}

/// Every `serve.*` trace record the daemon emits is also mapped in
/// MONITORING.md (the runbook), and conversely neither document promises a
/// `serve.*` record the code never emits.
#[test]
fn serve_trace_vocabulary_matches_docs() {
    let root = repo_root();
    let emitted: std::collections::BTreeSet<String> = emitted_records()
        .into_iter()
        .map(|(_, name)| name)
        .filter(|name| name.starts_with("serve."))
        .collect();
    assert!(
        emitted.len() >= 12,
        "serve trace vocabulary shrank: {emitted:?}"
    );

    let schema = std::fs::read_to_string(root.join("docs/TRACE_SCHEMA.md")).unwrap();
    let runbook = std::fs::read_to_string(root.join("docs/MONITORING.md")).unwrap();
    for name in &emitted {
        assert!(runbook.contains(name), "MONITORING.md missing {name}");
    }
    // And the docs do not promise records the code never emits.
    for doc_text in [&schema, &runbook] {
        let mut rest = doc_text.as_str();
        while let Some(pos) = rest.find("`serve.") {
            let tail = &rest[pos + 1..];
            // The record name is the maximal identifier-ish prefix; prose
            // like `serve.*` or `serve.restored_jobs == 0` carries extra
            // characters past it.
            let end = tail
                .find(|c: char| {
                    !c.is_ascii_lowercase() && !c.is_ascii_digit() && c != '_' && c != '.'
                })
                .unwrap_or(tail.len());
            let name = tail[..end].trim_end_matches('.');
            if name != "serve" {
                assert!(
                    emitted.contains(name),
                    "docs document {name} but the daemon never emits it"
                );
            }
            rest = &tail[end.max(1)..];
        }
    }
}

/// Every name `Stats::counters()` projects — what speedup.json, the
/// benchmark's per-layer table and `--profile` style reports are built
/// from — has a row in TRACE_SCHEMA.md.
#[test]
fn stats_counter_names_are_documented() {
    let schema = std::fs::read_to_string(repo_root().join("docs/TRACE_SCHEMA.md")).unwrap();
    for (name, _) in hhoudini::Stats::default().counters() {
        assert!(
            schema.contains(&format!("| `{name}` |")),
            "TRACE_SCHEMA.md has no row for {name}"
        );
    }
}

/// The `pub` field names of `pub struct <name>` in `file` (relative to the
/// repo root), in declaration order.
fn pub_fields(file: &str, name: &str) -> Vec<String> {
    let src = std::fs::read_to_string(repo_root().join(file)).unwrap();
    let open = format!("pub struct {name} {{");
    let start = src
        .find(&open)
        .unwrap_or_else(|| panic!("{file} declares no {name}"));
    let body = &src[start + open.len()..];
    let body = &body[..body.find("\n}").expect("struct body closes")];
    body.lines()
        .filter_map(|l| l.trim().strip_prefix("pub "))
        .filter_map(|l| l.split_once(':'))
        .map(|(field, _)| field.trim().to_string())
        .collect()
}

/// TUNING.md's table for each configuration struct names exactly that
/// struct's `pub` fields, so a deleted knob cannot linger in the docs and a
/// new one cannot ship undocumented.
#[test]
fn tuning_tables_match_config_structs() {
    let tuning = std::fs::read_to_string(repo_root().join("docs/TUNING.md")).unwrap();
    for (file, name, heading) in [
        (
            "crates/core/src/parallel.rs",
            "EngineConfig",
            "hhoudini::EngineConfig",
        ),
        (
            "crates/smt/src/query.rs",
            "AbductionConfig",
            "hh_smt::AbductionConfig",
        ),
        ("crates/sat/src/solver.rs", "Config", "hh_sat::Config"),
        (
            "crates/veloct/src/lib.rs",
            "VeloctConfig",
            "veloct::VeloctConfig",
        ),
    ] {
        let mut fields = pub_fields(file, name);
        let mut rows = table_rows(&tuning, &format!("`{heading}`"));
        assert!(!fields.is_empty(), "{name} parsed to no fields");
        fields.sort();
        rows.sort();
        assert_eq!(
            rows, fields,
            "TUNING.md `{heading}` rows vs {name}'s pub fields"
        );
    }
}
