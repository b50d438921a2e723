//! CLI for `ares-lint`.
//!
//! ```text
//! cargo run -p ares-lint -- --workspace            # lint the whole tree
//! cargo run -p ares-lint -- --rule loop-blocking   # one rule only
//! cargo run -p ares-lint -- --root /path/to/repo   # explicit root
//! cargo run -p ares-lint -- --json report.json     # machine-readable report
//! cargo run -p ares-lint -- --list                 # list rules
//! ```
//!
//! Exit status: 0 when clean, 1 on findings, 2 on usage/IO errors —
//! a nonzero exit fails the gate. `--json` writes the findings report
//! whether or not the tree is clean.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "ares-lint: static analysis for the ARES workspace\n\
     \n\
     USAGE: ares-lint [--workspace] [--root <dir>] [--rule <name>] [--json <path>] [--list]\n\
     \n\
     --workspace    lint every first-party source file (default)\n\
     --root <dir>   workspace root (default: this crate's ../..)\n\
     --rule <name>  run a single rule\n\
     --json <path>  also write a JSON findings report to <path> ('-' = stdout)\n\
     --list         list rule names and exit\n"
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut rule: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => {} // the default (and only) scanning mode
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--rule" => match args.next() {
                Some(r) if ares_lint::findings::RULE_NAMES.contains(&r.as_str()) => {
                    rule = Some(r);
                }
                Some(r) => {
                    eprintln!(
                        "unknown rule `{r}` — known rules: {}",
                        ares_lint::findings::RULE_NAMES.join(", ")
                    );
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--rule needs a name\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("--json needs a path (or '-')\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--list" => {
                for r in ares_lint::findings::RULE_NAMES {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    // Root: explicit flag, else the workspace containing this crate
    // (compile-time manifest dir), else the current directory.
    let root = root.unwrap_or_else(|| {
        let manifest: &str = env!("CARGO_MANIFEST_DIR");
        let p = PathBuf::from(manifest);
        p.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or_else(|| ".".into())
    });

    let files = match ares_lint::workspace::collect_files(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ares-lint: failed to read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let findings = ares_lint::run(&files, rule.as_deref());
    if let Some(path) = json_path.as_deref() {
        let report = ares_lint::json::findings_report(&findings, files.len());
        let written = if path == "-" {
            print!("{report}");
            Ok(())
        } else {
            std::fs::write(path, report)
        };
        if let Err(e) = written {
            eprintln!("ares-lint: failed to write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("ares-lint: clean — {} files scanned", files.len());
        ExitCode::SUCCESS
    } else {
        println!("ares-lint: {} finding(s) across {} files scanned", findings.len(), files.len());
        ExitCode::FAILURE
    }
}
