//! `cargo xtask` — repo-specific developer tasks.
//!
//! Currently one subcommand: `lint`, the two-phase static analysis
//! pass described in `xtask`'s crate docs and DESIGN.md §9.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{LintOptions, KNOWN_RULES};

/// Output format for `lint`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut command: Option<String> = None;
    let mut format = Format::Text;
    let mut opts = LintOptions::default();
    let mut list_rules = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = it.next().map(PathBuf::from),
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "--format expects `text` or `json`, got `{}`",
                        other.unwrap_or("<missing>")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--rules" => {
                let Some(spec) = it.next() else {
                    eprintln!("--rules expects a comma-separated family list");
                    return ExitCode::FAILURE;
                };
                let set: BTreeSet<String> = spec.split(',').map(|s| s.trim().to_owned()).collect();
                for r in &set {
                    if !KNOWN_RULES.contains(&r.as_str()) && r != "allow" {
                        eprintln!(
                            "unknown rule family `{r}` (see `cargo xtask lint --list-rules`)"
                        );
                        return ExitCode::FAILURE;
                    }
                }
                opts.rules = Some(set);
            }
            "--list-rules" => list_rules = true,
            "--bless-api" => opts.bless_api = true,
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if command.is_none() => command = Some(other.to_owned()),
            other => {
                eprintln!("unexpected argument `{other}`");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    match command.as_deref() {
        Some("lint") if list_rules => {
            for r in KNOWN_RULES {
                println!("{r}");
            }
            println!("allow");
            ExitCode::SUCCESS
        }
        Some("lint") => lint(root, format, &opts),
        Some(other) => {
            eprintln!("unknown subcommand `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
        None => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask lint [--root <workspace-root>] [--format text|json]\n\
         \x20                    [--rules <family,...>] [--list-rules] [--bless-api]\n\
         \n\
         Subcommands:\n\
         \x20 lint   run the repo static-analysis pass: per-file families\n\
         \x20        (hash-order determinism, hot-path discipline,\n\
         \x20        concurrency, doc examples, ...) plus the cross-file\n\
         \x20        families on the workspace model (lockorder, epochkey,\n\
         \x20        hotreach, cancelpoint, pubapi). The panic/index,\n\
         \x20        clock/entropy and crate-prelude policy is compiler-\n\
         \x20        backed: `cargo clippy --workspace --all-targets`\n\
         \n\
         Options:\n\
         \x20 --format json   machine-readable output (one JSON document)\n\
         \x20 --rules a,b     run only the named families\n\
         \x20 --list-rules    print the known families and exit\n\
         \x20 --bless-api     regenerate docs/api-baseline.txt from the\n\
         \x20                 current public surface instead of diffing it"
    );
}

fn lint(root: Option<PathBuf>, format: Format, opts: &LintOptions) -> ExitCode {
    // Default to the workspace this binary was built from: the alias
    // in .cargo/config.toml always runs it in-tree.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });
    match xtask::lint_workspace_with(&root, opts) {
        Ok(violations) => {
            if format == Format::Json {
                print!("{}", xtask::render_json(&violations));
            } else {
                for v in &violations {
                    println!("{v}");
                }
            }
            if violations.is_empty() {
                if opts.bless_api {
                    eprintln!("xtask lint: workspace clean (API baseline blessed)");
                } else {
                    eprintln!("xtask lint: workspace clean");
                }
                ExitCode::SUCCESS
            } else {
                eprintln!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}
