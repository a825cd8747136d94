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

/// Every `serve.*` trace record the daemon emits is documented in both
/// TRACE_SCHEMA.md (the stable vocabulary) and MONITORING.md (the
/// runbook), and conversely everything documented is actually emitted —
/// the sources are scanned for the literal counter!/event! names.
#[test]
fn serve_trace_vocabulary_matches_docs() {
    let root = repo_root();
    let mut emitted = std::collections::BTreeSet::new();
    for src in ["server.rs", "state.rs"] {
        let text = std::fs::read_to_string(root.join("crates/serve/src").join(src)).unwrap();
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("\"serve.") {
            let tail = &rest[pos + 1..];
            let end = tail.find('"').unwrap();
            emitted.insert(tail[..end].to_string());
            rest = &tail[end..];
        }
    }
    assert!(
        emitted.len() >= 12,
        "serve trace vocabulary shrank: {emitted:?}"
    );

    let schema = std::fs::read_to_string(root.join("docs/TRACE_SCHEMA.md")).unwrap();
    let runbook = std::fs::read_to_string(root.join("docs/MONITORING.md")).unwrap();
    for name in &emitted {
        assert!(schema.contains(name), "TRACE_SCHEMA.md missing {name}");
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

/// The first-column names of the table under the `## ` heading of
/// TUNING.md that mentions `` `heading` ``.
fn tuning_rows(tuning: &str, heading: &str) -> Vec<String> {
    let section = tuning
        .split("\n## ")
        .find(|s| s.lines().next().unwrap().contains(&format!("`{heading}`")))
        .unwrap_or_else(|| panic!("TUNING.md has no section for {heading}"));
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split_once('`'))
        .map(|(name, _)| name.to_string())
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
            "crates/core/src/engine.rs",
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
        let mut rows = tuning_rows(&tuning, heading);
        assert!(!fields.is_empty(), "{name} parsed to no fields");
        fields.sort();
        rows.sort();
        assert_eq!(
            rows, fields,
            "TUNING.md `{heading}` rows vs {name}'s pub fields"
        );
    }
}
