//! `deco-tidy` CLI: `deco-tidy check [--json] [--root <path>]`.
//!
//! Exit status is the whole interface contract: 0 when the tree is clean,
//! 1 when any lint fired (report-only by design — there is no `--fix`;
//! the fix is editing the code or writing a justified inline allow).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut saw_check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "check" => saw_check = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("deco-tidy: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: deco-tidy check [--json] [--root <workspace-root>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("deco-tidy: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    if !saw_check {
        eprintln!("usage: deco-tidy check [--json] [--root <workspace-root>]");
        return ExitCode::from(2);
    }

    // Run from any workspace subdirectory: walk up to the root manifest.
    if root.as_os_str() == "." {
        let mut cur = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        loop {
            if cur.join("Cargo.toml").is_file() && cur.join("crates").is_dir() {
                root = cur;
                break;
            }
            if !cur.pop() {
                break;
            }
        }
    }

    let report = match deco_tidy::check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("deco-tidy: io error walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", deco_probe::json::to_string(&report.json()));
    } else {
        for d in &report.violations {
            println!("{d}");
        }
        println!(
            "deco-tidy: {} file(s) scanned, {} violation(s)",
            report.files_scanned,
            report.violations.len()
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
