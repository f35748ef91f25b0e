//! Micro-benchmarks of the certification layer: DRAT emission from the
//! proof-logging CDCL solver, checking in `hqs-proof`, and parsing a
//! solver-emitted text proof.

use hqs_base::Lit;
use hqs_bench::micro::{BenchmarkId, Criterion};
use hqs_bench::{criterion_group, criterion_main};
use hqs_cnf::Cnf;
use hqs_proof::{check_proof, parse_text_drat};
use hqs_sat::{ProofBuffer, SolveResult, Solver, TextDratLogger};

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

/// Solves `cnf` with proof logging and returns the emitted text DRAT.
fn refute(cnf: &Cnf) -> String {
    let buffer = ProofBuffer::new();
    let mut solver = Solver::builder()
        .proof_logger(Box::new(TextDratLogger::new(buffer.clone())))
        .build()
        .expect("valid");
    solver.ensure_vars(cnf.num_vars());
    for clause in cnf.clauses() {
        solver.add_clause(clause.lits().iter().copied());
    }
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    String::from_utf8(buffer.contents()).expect("utf-8 proof")
}

fn solve_logged(cnf: &Cnf, logged: bool) -> SolveResult {
    let mut builder = Solver::builder();
    if logged {
        builder = builder.proof_logger(Box::new(TextDratLogger::new(ProofBuffer::new())));
    }
    let mut solver = builder.build().expect("valid");
    solver.ensure_vars(cnf.num_vars());
    for clause in cnf.clauses() {
        solver.add_clause(clause.lits().iter().copied());
    }
    solver.solve(&[])
}

fn bench_emission(c: &mut Criterion) {
    let mut group = c.benchmark_group("proof/emission");
    group.sample_size(20);
    let php = pigeonhole(7, 6);
    // The price of proof logging itself: the same refutation with the
    // logger detached vs. attached.
    group.bench_function("pigeonhole_7_6_unlogged", |b| {
        b.iter(|| solve_logged(&php, false))
    });
    group.bench_function("pigeonhole_7_6_logged", |b| {
        b.iter(|| solve_logged(&php, true))
    });
    group.finish();
}

fn bench_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("proof/check");
    group.sample_size(20);
    for (pigeons, holes) in [(6i64, 5i64), (7, 6)] {
        let cnf = pigeonhole(pigeons, holes);
        let proof = parse_text_drat(&refute(&cnf)).expect("well-formed proof");
        let id = format!("pigeonhole_{pigeons}_{holes}");
        group.bench_with_input(BenchmarkId::new("forward", &id), &proof, |b, proof| {
            b.iter(|| check_proof(&cnf, proof).expect("valid proof"));
        });
    }
    group.finish();
}

fn bench_formats(c: &mut Criterion) {
    let mut group = c.benchmark_group("proof/format");
    let text = refute(&pigeonhole(7, 6));
    group.bench_function("parse_text", |b| {
        b.iter(|| parse_text_drat(&text).expect("well-formed proof"))
    });
    group.finish();
}

criterion_group!(benches, bench_emission, bench_checking, bench_formats);
criterion_main!(benches);
