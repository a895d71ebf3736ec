//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a report followed, as the last line of
//! standard output, by one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Without tracing the metrics are
//! the end-to-end ones; with `--trace 1` they are the per-layer ones,
//! and the Chrome trace and folded stacks are written to `.bench_out`.
//! When an option is given twice, the last one wins, so a default seed
//! can lead the command line.

use std::path::PathBuf;
use std::process::ExitCode;

use oorq_perfbench::workload::{Scale, Workload, ALL};
use oorq_perfbench::{run, Options};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: Workload::MusicWarm,
        seed: 1,
        seconds: 25.0,
        trace: false,
        scale: Scale::Full,
        out_dir: Some(PathBuf::from(".bench_out")),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            for line in &out.notes {
                println!("{line}");
            }
            println!("{}", out.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
