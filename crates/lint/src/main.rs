//! The `trinity-lint` CLI: lints the workspace and exits non-zero on
//! findings, so CI can gate on it.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
trinity-lint — static analysis for the lazy-reduction and backend-identity invariants

USAGE:
    trinity-lint [--root <dir>] [--format text|json] [--list-rules]

OPTIONS:
    --root <dir>       Workspace root to scan (default: the nearest ancestor
                       of the current directory containing Cargo.toml, else .)
    --format <fmt>     `text` (rustc-style, default) or `json`
    --list-rules       Print the rule catalogue and exit
    -h, --help         This message

EXIT CODES:
    0  clean
    1  findings reported
    2  usage or I/O error";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = String::from("text");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = "text".into(),
                Some("json") => format = "json".into(),
                _ => return usage_error("--format must be `text` or `json`"),
            },
            "--list-rules" => {
                for r in trinity_lint::rules::RULES {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = root.unwrap_or_else(default_root);
    let findings = match trinity_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trinity-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if format == "json" {
        print!("{}", trinity_lint::diag::render_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render_text());
        }
        if findings.is_empty() {
            eprintln!("trinity-lint: clean ({})", root.display());
        } else {
            eprintln!("trinity-lint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Nearest ancestor with a Cargo.toml (so the binary works from any
/// subdirectory of the workspace), falling back to `.`.
fn default_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").is_file() {
            // Prefer the outermost Cargo.toml below the filesystem
            // root: keep climbing while a parent also has one.
            let has_parent_manifest = dir.parent().is_some_and(|p| p.join("Cargo.toml").is_file());
            if !has_parent_manifest {
                return dir;
            }
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => return PathBuf::from("."),
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("trinity-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
