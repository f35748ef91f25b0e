//! The `benchmark` command line.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out PATH]
//! benchmark --make-expected [--out FILE]
//! benchmark compare DIR_A DIR_B [--bounds BENCHMARK.json]
//! ```
//!
//! With `--workload all` (the default) each workload runs in a child
//! process of its own, so peak memory is per workload; `--out` then
//! names a directory receiving one result file per workload.

use hqs_benchmark::compare;
use hqs_benchmark::oracle::{self, Oracle};
use hqs_benchmark::workloads::{self, RunOptions, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  benchmark [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out PATH]
  benchmark --make-expected [--out FILE]
  benchmark compare DIR_A DIR_B [--bounds BENCHMARK.json]
workloads: table1-ci, pec-graded, certify";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ if args.iter().any(|a| a == "--make-expected") => run_make_expected(&args),
        _ => run_benchmark(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The value following flag `args[*i]`, advancing `i` past it.
fn value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a number, got '{text}'"))
}

fn run_benchmark(args: &[String]) -> Result<ExitCode, String> {
    let mut workload: Option<Workload> = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(args, &mut i)?;
                workload = match name {
                    "all" => None,
                    _ => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?,
                    ),
                };
            }
            "--seed" => seed = number("--seed", value(args, &mut i)?)?,
            "--seconds" => {
                seconds = number("--seconds", value(args, &mut i)?)?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds must lie in 0..=3600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
                i += 1;
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value(args, &mut i)?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let Some(workload) = workload else {
        return run_all(args, out.as_deref());
    };
    let oracle = Oracle::committed()?;
    let report = workloads::run(
        &RunOptions {
            workload,
            seed,
            seconds,
            trace,
            smoke,
        },
        &oracle,
    );
    print!("{}", report.render());
    println!("{}", report.json());
    if let Some(path) = out {
        std::fs::write(&path, report.file_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in a child process of its own.
fn run_all(args: &[String], out: Option<&Path>) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    // Forward everything except --workload and --out, which differ per
    // child.
    let mut forwarded = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" | "--out" => i += 1,
            other => forwarded.push(other.to_string()),
        }
        i += 1;
    }
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(&forwarded).args(["--workload", workload.name()]);
        if let Some(dir) = out {
            child
                .arg("--out")
                .arg(dir.join(format!("{}.json", workload.name())));
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        if !status.success() {
            eprintln!(
                "benchmark: workload {} exited with {status}",
                workload.name()
            );
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

fn run_make_expected(args: &[String]) -> Result<ExitCode, String> {
    let mut out = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/expected/verdicts.tsv"
    ));
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--make-expected" => {}
            "--out" => out = PathBuf::from(value(args, &mut i)?),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let table = oracle::make_expected()?;
    std::fs::write(&out, table).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(ExitCode::SUCCESS)
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs = Vec::new();
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bounds" => bounds = PathBuf::from(value(args, &mut i)?),
            dir => dirs.push(PathBuf::from(dir)),
        }
        i += 1;
    }
    let [dir_a, dir_b] = &dirs[..] else {
        return Err("compare takes two result directories".to_string());
    };
    let bounds = compare::load_bounds(&bounds)?;
    let (table, regressed) = compare::compare(
        &compare::load_dir(dir_a)?,
        &compare::load_dir(dir_b)?,
        &bounds,
    );
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
