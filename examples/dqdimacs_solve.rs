//! A miniature command-line DQBF solver: reads a DQDIMACS file (path as
//! the first argument, or a built-in demo formula when absent), runs HQS
//! and prints the verdict plus pipeline statistics — the shape of a real
//! solver binary built on this library.
//!
//! ```text
//! cargo run --example dqdimacs_solve -- instance.dqdimacs
//! ```

use hqs::cnf::dimacs;
use hqs::{Dqbf, Outcome, Session};
use std::process::ExitCode;

const DEMO: &str = "\
c Example 1 of the HQS paper, as DQDIMACS:
c   forall x1 x2  exists y1(x1) y2(x2) : (y1<->x1) & (y2<->x2)
p cnf 4 4
a 1 2 0
d 3 1 0
d 4 2 0
-3 1 0
3 -1 0
-4 2 0
4 -2 0
";

fn main() -> ExitCode {
    let text = match std::env::args().nth(1) {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            eprintln!("no input file given; solving the built-in demo\n{DEMO}");
            DEMO.to_string()
        }
    };
    let file = match dimacs::parse_dqdimacs(&text) {
        Ok(file) => file,
        Err(err) => {
            eprintln!("parse error: {err}");
            return ExitCode::FAILURE;
        }
    };
    let dqbf = Dqbf::from_file(&file);
    println!(
        "parsed: {} universals, {} existentials, {} clauses",
        dqbf.universals().len(),
        dqbf.existentials().len(),
        dqbf.matrix().clauses().len()
    );
    let mut session = Session::builder().build().expect("defaults are valid");
    let result = session.solve(&dqbf);
    let stats = session.stats();
    println!(
        "preprocessing: {} units, {} universal reductions, {} pures, \
         {} equivalences, {} gates",
        stats.preprocess.units,
        stats.preprocess.universal_reductions,
        stats.preprocess.pures,
        stats.preprocess.equivalences,
        stats.preprocess.gates,
    );
    println!(
        "main loop: {} universal / {} existential / {} unit-pure \
         eliminations, elimination set {}, peak {} nodes, QBF finish \
         reached: {}",
        stats.universal_elims,
        stats.existential_elims,
        stats.unit_pure_elims,
        stats.elimination_set_size,
        stats.peak_nodes,
        stats.reached_qbf,
    );
    // Standard (Q)DIMACS-style exit codes: 10 = SAT, 20 = UNSAT.
    match result {
        Outcome::Sat => println!("s cnf SAT"),
        Outcome::Unsat => println!("s cnf UNSAT"),
        Outcome::Unknown(e) => println!("s cnf UNKNOWN ({e})"),
    }
    ExitCode::from(u8::try_from(result.to_exit_code()).unwrap_or(1))
}
