//! `dcat-exp` — runs the paper's experiments by name.
//!
//! ```text
//! dcat-exp <name> [--fast] [--jobs N] [--sample-sets N] [--tenants N]
//!                 [--metrics-out PATH] [--frames-out PATH]
//! dcat-exp all [flags]   # the evaluation suite, in table order
//! dcat-exp list          # every experiment name
//! ```
//!
//! Names are the entries of [`dcat_bench::experiments::EXPERIMENTS`].
//! With `--jobs N` sweeps (and `all`'s experiments) fan out across
//! worker threads; the report bytes are identical to a `--jobs 1` run
//! because each task's output is captured and replayed in order. An
//! unknown name, an unknown flag or a malformed value prints the usage
//! and exits with status 2.

use std::process::ExitCode;

use dcat_bench::experiments::EXPERIMENTS;
use dcat_bench::{main_with, Cli, Runner};

const USAGE: &str = "usage: dcat-exp <name|all|list> [--fast] [--jobs N] [--sample-sets N] \
                     [--tenants N] [--metrics-out PATH] [--frames-out PATH]";

fn usage(error: &str) -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "dcat-exp: {error}\n{USAGE}\nexperiments: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn run_all(cli: &Cli) {
    let suite = EXPERIMENTS.iter().filter(|e| e.in_all).collect();
    Runner::from_env().map(suite, |_, exp| (exp.run)(cli));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, flags)) = args.split_first() else {
        return usage("missing experiment name");
    };
    let run: fn(&Cli) = match name.as_str() {
        "all" => run_all,
        "list" => |_: &Cli| {
            for e in EXPERIMENTS {
                println!("{}", e.name);
            }
        },
        _ => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(exp) => exp.run,
            None => return usage(&format!("unknown experiment '{name}'")),
        },
    };
    match Cli::parse(flags) {
        Ok(cli) => {
            main_with(&cli, run);
            ExitCode::SUCCESS
        }
        Err(e) => usage(&e),
    }
}
