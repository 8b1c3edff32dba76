//! # xtask
//!
//! Repo-specific static analysis for the LCRB reproduction, exposed
//! as `cargo xtask lint` (see `.cargo/config.toml`).
//!
//! It checks only what rustc and clippy cannot. The library
//! panic/index policy, the clock/entropy bans and the crate-root lint
//! prelude are compiler-backed: the workspace `[lints]` table and
//! `clippy.toml`. What a generic linter cannot see: the greedy
//! approximation guarantee rests on coupled random realizations (so
//! hash-order iteration is a correctness bug, not style), the
//! CSR/workspace kernel keeps its measured speedup only while hot
//! modules stay allocation-free and snapshot-based, and the shared
//! `Solver` session rests on cross-file invariants (lock acquisition
//! order, epoch-carrying cache keys) no single file shows.
//!
//! The tool runs in **two phases**:
//!
//! 1. every non-test, non-bench library source is tokenized once
//!    ([`lexer`]) and the per-file rule families run over each token
//!    stream ([`rules`]), while the same streams feed a **workspace
//!    model** ([`model`]) — item tree, call graph, lock-acquisition
//!    sites, cache-family key types;
//! 2. the cross-file rule families ([`wrules`]) run against that
//!    model: `lockorder`, `epochkey`, `hotreach`, `cancelpoint`, and
//!    the `pubapi` baseline diff.
//!
//! Suppression is per-line `// xtask-allow: <rule> -- <justification>`
//! for every family except `pubapi`, whose only escape hatch is
//! regenerating the checked-in baseline with `--bless-api`.
//!
//! The tool is self-contained (no registry dependencies) and fully
//! deterministic: files are walked in sorted order and diagnostics
//! are sorted before printing.

#![allow(clippy::indexing_slicing, reason = "dev tooling")]
pub mod lexer;
pub mod model;
pub mod rules;
pub mod wrules;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use model::WorkspaceModel;

pub use rules::{classify, lint_source, Violation, KNOWN_RULES};

/// Workspace-relative location of the public-API baseline.
pub const API_BASELINE_PATH: &str = "docs/api-baseline.txt";

/// Options for a [`lint_workspace_with`] run.
#[derive(Debug, Default)]
pub struct LintOptions {
    /// Restrict to these rule families (`None` = all). Pragma-hygiene
    /// (`allow`) diagnostics other than unused-allow still run; the
    /// unused-allow check is skipped under a filter because a pragma
    /// whose family did not run cannot be judged unused.
    pub rules: Option<BTreeSet<String>>,
    /// Regenerate `docs/api-baseline.txt` from the current surface
    /// instead of diffing against it.
    pub bless_api: bool,
}

impl LintOptions {
    fn enabled(&self, rule: &str) -> bool {
        self.rules.as_ref().is_none_or(|set| set.contains(rule))
    }
}

/// Recursively collects workspace `.rs` sources under `root`,
/// returning workspace-relative forward-slash paths in sorted order.
///
/// # Errors
///
/// Returns any I/O error encountered while reading directories.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut found)?;
        }
    }
    found.sort();
    Ok(found)
}

fn walk(dir: &Path, found: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" || name == "vendor" {
            continue;
        }
        if path.is_dir() {
            walk(&path, found)?;
        } else if name.ends_with(".rs") {
            found.push(path);
        }
    }
    Ok(())
}

/// Lints every in-scope source under `root` with default options;
/// returns sorted diagnostics (empty means the workspace is clean).
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading files.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    lint_workspace_with(root, &LintOptions::default())
}

/// Both lint phases over in-memory `(relative path, source)` pairs:
/// per-file raw violations, the workspace model, the model-backed
/// cross-file families (except the baseline-diffing `pubapi`, which
/// needs a workspace root), and the shared `xtask-allow` pragma pass.
/// Returns the surviving diagnostics plus the model so callers can
/// run `pubapi` against it.
#[must_use]
pub fn lint_entries(
    entries: &[(String, String)],
    opts: &LintOptions,
) -> (Vec<Violation>, WorkspaceModel) {
    // Phase 1: per-file raw violations + the workspace model.
    let mut raw_by_file: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    let mut lexed_by_file: BTreeMap<String, lexer::Lexed> = BTreeMap::new();
    for (rel, source) in entries {
        let lexed = lexer::lex(source);
        let mut raw = rules::lint_source_raw(rel, source, &lexed);
        if let Some(filter) = &opts.rules {
            raw.retain(|v| filter.contains(&v.rule));
        }
        raw_by_file.insert(rel.clone(), raw);
        lexed_by_file.insert(rel.clone(), lexed);
    }
    let model = WorkspaceModel::from_sources(
        &entries
            .iter()
            .map(|(rel, src)| (rel.as_str(), src.as_str()))
            .collect::<Vec<_>>(),
    );

    // Phase 2: cross-file families, routed to their file's pragma
    // pass so line-level `xtask-allow`s apply to them too.
    let mut workspace_raw: Vec<Violation> = Vec::new();
    if opts.enabled("lockorder") {
        workspace_raw.extend(wrules::lockorder(&model));
    }
    if opts.enabled("epochkey") {
        workspace_raw.extend(wrules::epochkey(&model));
    }
    if opts.enabled("hotreach") {
        workspace_raw.extend(wrules::hotreach(&model));
    }
    if opts.enabled("cancelpoint") {
        workspace_raw.extend(wrules::cancelpoint(&model));
    }
    for v in workspace_raw {
        raw_by_file.entry(v.file.clone()).or_default().push(v);
    }

    let mut violations = Vec::new();
    for (rel, raw) in raw_by_file {
        match lexed_by_file.get(&rel) {
            Some(lexed) => {
                violations.extend(rules::apply_allows(&rel, lexed, raw, opts.rules.is_none()))
            }
            // Violations attributed to a non-source file (none today;
            // pubapi is appended by `lint_workspace_with`) pass
            // through unsuppressed.
            None => violations.extend(raw),
        }
    }
    (violations, model)
}

/// The full two-phase lint: per-file families, the workspace model,
/// and the cross-file families, honoring `opts`.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading files,
/// or while writing the baseline under `--bless-api`.
pub fn lint_workspace_with(root: &Path, opts: &LintOptions) -> std::io::Result<Vec<Violation>> {
    // Read + lex every in-scope file once; both phases share it.
    let mut entries: Vec<(String, String)> = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if classify(&rel).is_none() {
            continue;
        }
        let source = std::fs::read_to_string(&path)?;
        entries.push((rel, source));
    }

    let (mut violations, model) = lint_entries(&entries, opts);

    // `pubapi` last: baseline diff (or regeneration), never
    // pragma-suppressible.
    if opts.enabled("pubapi") {
        let surface = wrules::api_surface(&model);
        let baseline_path = root.join(API_BASELINE_PATH);
        if opts.bless_api {
            if let Some(dir) = baseline_path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut text = String::from(
                "# Public API baseline — one line per unrestricted-`pub` item.\n\
                 # Regenerate with `cargo xtask lint --bless-api`; the `pubapi`\n\
                 # lint fails on any drift from this file.\n",
            );
            for line in &surface {
                text.push_str(line);
                text.push('\n');
            }
            std::fs::write(&baseline_path, text)?;
        } else {
            let baseline = std::fs::read_to_string(&baseline_path).ok();
            violations.extend(wrules::pubapi_diff(baseline.as_deref(), &surface));
        }
    }

    violations.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(violations)
}

/// Renders diagnostics as a machine-readable JSON document (stable
/// field order, sorted input assumed): `{"count": N, "violations":
/// [{"file","line","rule","message"}, ..]}`.
#[must_use]
pub fn render_json(violations: &[Violation]) -> String {
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"count\": {},\n  \"violations\": [",
        violations.len()
    ));
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape(&v.file),
            v.line,
            escape(&v.rule),
            escape(&v.message)
        ));
    }
    if !violations.is_empty() {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("]\n}\n");
    out
}
