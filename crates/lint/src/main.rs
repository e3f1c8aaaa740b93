//! The `mp-lint` CLI.
//!
//! ```text
//! mp-lint [ROOT] [--json] [--deny-all] [--rule <id|name>]... [--list-rules]
//! ```
//!
//! Exit codes: `0` clean (warnings allowed), `1` deny-level findings,
//! `2` usage or I/O error. CI runs `mp-lint --deny-all --json`.

use mp_lint::{lint_workspace, rule_by_name, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
    deny_all: bool,
    rules: Vec<&'static str>,
}

fn usage() -> &'static str {
    "usage: mp-lint [ROOT] [--json] [--deny-all] [--rule <id|name>]... [--list-rules]\n\
     \n\
     Lints the metaprobe workspace at ROOT (default: the current\n\
     directory) against the numeric/concurrency contract rules L1-L12.\n\
     See LINT.md for the rule catalog.\n\
     \n\
     --json         machine-readable output (stable shape, version 3)\n\
     --deny-all     promote warnings (L7, A1) to errors - the CI configuration\n\
     --rule R       only report rule R (repeatable)\n\
     --list-rules   print the rule catalog and exit"
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        deny_all: false,
        rules: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--deny-all" => args.deny_all = true,
            "--rule" => {
                let name = it.next().ok_or("--rule needs a value")?;
                let info = rule_by_name(&name).ok_or(format!("unknown rule `{name}`"))?;
                args.rules.push(info.id);
            }
            "--list-rules" => {
                for r in RULES {
                    println!("{:<3} {:<18} {}", r.id, r.name, r.summary);
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => args.root = PathBuf::from(path),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mp-lint: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if !args.root.join("Cargo.toml").is_file() {
        eprintln!(
            "mp-lint: `{}` does not look like a workspace root (no Cargo.toml)",
            args.root.display()
        );
        return ExitCode::from(2);
    }
    let mut report = match lint_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mp-lint: I/O error while scanning: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.rules.is_empty() {
        report.retain_rules(&args.rules);
    }
    if args.deny_all {
        report.deny_all();
    }
    if args.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.denies() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
