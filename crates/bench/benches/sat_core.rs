//! SAT-core throughput benchmark: raw CDCL propagations/sec and
//! conflicts/sec on the elimination-style corpus (PEC matrices, i.e. the
//! CNFs the quantifier-elimination checks actually issue, plus classic
//! search-heavy instances), measured cold (fresh solver per instance) and
//! incremental (one warm solver, a stream of assumption queries).
//!
//! The quantity of interest is corpus-level throughput, not per-call
//! latency. Results are
//! written as `BENCH_sat.json` (override with `BENCH_SAT_JSON`) so CI can
//! gate on regressions against the committed copy.

use hqs_base::{Lit, Rng, Var};
use hqs_cnf::Cnf;
use hqs_pec::families::generate;
use hqs_pec::Family;
use hqs_sat::Solver;
use std::fmt::Write as _;
use std::time::Instant;

fn pigeonhole(pigeons: i64, holes: i64) -> Cnf {
    let var = |p: i64, h: i64| (p - 1) * holes + h;
    let lit = |v: i64| Lit::from_dimacs(v).expect("non-zero literal");
    let mut cnf = Cnf::new((pigeons * holes) as u32);
    for p in 1..=pigeons {
        cnf.add_lits((1..=holes).map(|h| lit(var(p, h))));
    }
    for h in 1..=holes {
        for p1 in 1..=pigeons {
            for p2 in (p1 + 1)..=pigeons {
                cnf.add_lits([lit(-var(p1, h)), lit(-var(p2, h))]);
            }
        }
    }
    cnf
}

fn random_3sat(num_vars: u32, num_clauses: usize, seed: u64) -> Cnf {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cnf = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        cnf.add_lits(
            (0..3).map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5))),
        );
    }
    cnf
}

/// The corpus: PEC-family matrices (exactly the CNF shape the
/// elimination loop's SAT checks see) plus pigeonhole and
/// near-threshold random 3-SAT for conflict-heavy search.
fn corpus() -> Vec<(String, Cnf)> {
    let mut instances = Vec::new();
    let plan = [
        (Family::Adder, 6u32, 2u32),
        (Family::Bitcell, 8, 2),
        (Family::Lookahead, 8, 2),
        (Family::Comp, 5, 2),
        (Family::C432, 6, 2),
    ];
    for (family, size, boxes) in plan {
        for (seed, fault) in [(0u64, false), (1, true)] {
            let instance = generate(family, size, boxes, seed, fault);
            instances.push((
                format!(
                    "pec_{}_{size}{}",
                    family.name(),
                    if fault { "_fault" } else { "" }
                ),
                instance.dqbf.matrix().clone(),
            ));
        }
    }
    instances.push(("php_7_6".to_string(), pigeonhole(7, 6)));
    instances.push(("php_8_7".to_string(), pigeonhole(8, 7)));
    for seed in 0..6u64 {
        instances.push((
            format!("rand3sat_140_s{seed}"),
            random_3sat(140, 595, 0xC0FFEE + seed),
        ));
    }
    instances
}

#[derive(Default)]
struct Tally {
    propagations: u64,
    conflicts: u64,
    wall_seconds: f64,
    solved: usize,
}

impl Tally {
    fn props_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.propagations as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    fn conflicts_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.conflicts as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

fn solver_for(cnf: &Cnf) -> Solver {
    let mut solver = Solver::new();
    solver.add_cnf(cnf);
    solver
}

/// Cold pass: a fresh solver per instance, no assumptions.
fn run_cold(instances: &[(String, Cnf)]) -> Tally {
    let mut tally = Tally::default();
    for (name, cnf) in instances {
        let mut solver = solver_for(cnf);
        let start = Instant::now();
        let result = solver.solve(&[]);
        let wall = start.elapsed().as_secs_f64();
        tally.wall_seconds += wall;
        let stats = solver.stats();
        if std::env::var("BENCH_SAT_VERBOSE").is_ok() {
            println!(
                "    {name}: {:.4}s {} props ({:.2e}/s) {} conflicts",
                wall,
                stats.propagations,
                stats.propagations as f64 / wall,
                stats.conflicts
            );
        }
        tally.propagations += stats.propagations;
        tally.conflicts += stats.conflicts;
        tally.solved += usize::from(result != hqs_sat::SolveResult::Unknown);
    }
    tally
}

/// Incremental pass: one warm solver per instance answering a stream of
/// assumption queries — the `hqs serve` / elimination-check usage
/// profile, where learnt clauses and phases survive between queries.
fn run_incremental(instances: &[(String, Cnf)]) -> Tally {
    const QUERIES: usize = 12;
    let mut tally = Tally::default();
    for (name, cnf) in instances {
        let mut solver = solver_for(cnf);
        let mut rng = Rng::seed_from_u64(0x5EED ^ name.len() as u64);
        let num_vars = cnf.num_vars().max(1);
        for _ in 0..QUERIES {
            let assumptions: Vec<Lit> = (0..3)
                .map(|_| Lit::new(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
                .collect();
            let before = solver.stats();
            let start = Instant::now();
            let result = solver.solve(&assumptions);
            tally.wall_seconds += start.elapsed().as_secs_f64();
            let stats = solver.stats();
            tally.propagations += stats.propagations - before.propagations;
            tally.conflicts += stats.conflicts - before.conflicts;
            tally.solved += usize::from(result != hqs_sat::SolveResult::Unknown);
        }
    }
    tally
}

fn main() {
    let instances = corpus();
    println!("sat_core: {} instances", instances.len());

    // Warm-up pass so first-touch effects don't land on the measurement.
    let _ = run_cold(&instances);

    let cold = run_cold(&instances);
    let incremental = run_incremental(&instances);

    let mut entries = String::new();
    for (mode, tally) in [("cold", &cold), ("incremental", &incremental)] {
        println!(
            "  {mode}: {:.3} s wall, {} props ({:.2e}/s), {} conflicts ({:.2e}/s), {} solved",
            tally.wall_seconds,
            tally.propagations,
            tally.props_per_sec(),
            tally.conflicts,
            tally.conflicts_per_sec(),
            tally.solved,
        );
        if !entries.is_empty() {
            entries.push(',');
        }
        let _ = write!(
            entries,
            "{{\"mode\":\"{mode}\",\"wall_s\":{:.6},\"propagations\":{},\
             \"conflicts\":{},\"props_per_sec\":{:.1},\"conflicts_per_sec\":{:.1},\
             \"solved\":{}}}",
            tally.wall_seconds,
            tally.propagations,
            tally.conflicts,
            tally.props_per_sec(),
            tally.conflicts_per_sec(),
            tally.solved,
        );
    }
    let json = format!(
        "{{\"schema\":\"hqs-bench-sat/1\",\"instances\":{},\"runs\":[{entries}]}}\n",
        instances.len()
    );
    let path = std::env::var("BENCH_SAT_JSON").unwrap_or_else(|_| "BENCH_sat.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("warning: cannot write {path}: {err}"),
    }
}
