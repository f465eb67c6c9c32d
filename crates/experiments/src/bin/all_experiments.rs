//! Regenerates the paper's tables and figures from the experiment
//! registry and (optionally) writes the markdown summary used by
//! EXPERIMENTS.md.
//!
//! Usage: `all_experiments [--quick] [--only id,id…] [--markdown <path>]
//! [--json <path>]`
//!
//! Without `--only` every registry entry runs, in paper order. With it,
//! only the entries that yield a listed report id run, each once
//! (`--only fig06,fig07` runs the Fig. 6/7 sweep a single time), and
//! only the listed reports are printed and written. An unknown id is a
//! usage error (exit 2) that lists the known ids.
//! The paper's claims on the reports that ran (`nomc_experiments::claims`)
//! follow as one more report, `claims`; a failed claim exits 1.

use nomc_experiments::{claims, experiments, ExpConfig};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let only: Option<Vec<String>> = if args.iter().any(|a| a == "--only") {
        match flag_value(&args, "--only") {
            Some(list) => Some(list.split(',').map(str::to_string).collect()),
            None => {
                eprintln!("all_experiments: --only needs a comma-separated list of report ids");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let mut reports = match experiments::run(&ExpConfig::from_env(), only.as_deref()) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("all_experiments: {e}");
            return ExitCode::from(2);
        }
    };
    let verdicts = claims::evaluate(claims::CLAIMS, &reports);
    let failed = verdicts.iter().filter(|v| !v.pass).count();
    if !verdicts.is_empty() {
        reports.push(claims::report(&verdicts));
    }
    for report in &reports {
        println!("{report}");
    }
    if let Some(path) = flag_value(&args, "--markdown") {
        let mut out = String::from("# Generated experiment results\n\n");
        for report in &reports {
            out.push_str(&report.to_markdown());
            out.push('\n');
        }
        std::fs::write(&path, out).expect("write markdown");
        eprintln!("wrote {path}");
    }
    if let Some(path) = flag_value(&args, "--json") {
        let json: Vec<String> = reports.iter().map(|r| r.to_json_string()).collect();
        let mut f = std::fs::File::create(&path).expect("create json file");
        writeln!(f, "[{}]", json.join(",\n")).expect("write json");
        eprintln!("wrote {path}");
    }
    if failed > 0 {
        eprintln!("all_experiments: {failed} claim(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}
