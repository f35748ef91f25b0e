//! Brute-force QBF evaluation, used as a test oracle.

use hqs_base::{Assignment, TruthValue, Var};
use hqs_cnf::{QdimacsFile, Quantifier};

/// Evaluates a QDIMACS file by exhaustive quantifier expansion.
///
/// Free variables are treated as outermost existentials, as HQS binds
/// them. Exponential; only feed it small instances.
///
/// # Examples
///
/// ```
/// use hqs_cnf::dimacs::parse_qdimacs;
/// use hqs_qbf::reference::eval_qdimacs;
///
/// let file = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 -2 0\n-1 2 0\n")?;
/// assert!(eval_qdimacs(&file));
/// # Ok::<(), hqs_cnf::ParseError>(())
/// ```
#[must_use]
pub fn eval_qdimacs(file: &QdimacsFile) -> bool {
    // Flatten prefix to a linear variable order with quantifiers;
    // prepend free variables existentially.
    let mut quantified: Vec<(Var, Quantifier)> = Vec::new();
    for block in &file.blocks {
        for &v in &block.vars {
            quantified.push((v, block.quantifier));
        }
    }
    let bound: Vec<Var> = quantified.iter().map(|&(v, _)| v).collect();
    let mut linear: Vec<(Var, Quantifier)> = file
        .matrix
        .support()
        .iter()
        .filter(|v| !bound.contains(v))
        .map(|v| (v, Quantifier::Existential))
        .collect();
    linear.extend(quantified);
    assert!(
        linear.len() <= 24,
        "brute-force QBF oracle limited to 24 variables"
    );
    let mut assignment = Assignment::with_num_vars(file.matrix.num_vars());
    eval_rec(file, &linear, 0, &mut assignment)
}

fn eval_rec(
    file: &QdimacsFile,
    order: &[(Var, Quantifier)],
    depth: usize,
    assignment: &mut Assignment,
) -> bool {
    // Early exit: fully decided matrix.
    match file.matrix.evaluate(assignment) {
        TruthValue::True => return true,
        TruthValue::False => return false,
        TruthValue::Unassigned => {}
    }
    let Some(&(var, quantifier)) = order.get(depth) else {
        // All quantified variables assigned but the matrix is undecided:
        // remaining vars are unconstrained... cannot happen since support
        // is covered; treat unassigned as false.
        return file.matrix.evaluate(assignment) == TruthValue::True;
    };
    let mut results = [false, false];
    for (i, value) in [false, true].into_iter().enumerate() {
        assignment.assign(var, value);
        results[i] = eval_rec(file, order, depth + 1, assignment);
        assignment.unassign(var);
        // Short-circuit.
        match quantifier {
            Quantifier::Existential if results[i] => return true,
            Quantifier::Universal if !results[i] => return false,
            _ => {}
        }
    }
    match quantifier {
        Quantifier::Existential => results[0] || results[1],
        Quantifier::Universal => results[0] && results[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqs_cnf::dimacs::parse_qdimacs;

    #[test]
    fn known_instances() {
        // ∀x∃y. x↔y : true.
        assert!(eval_qdimacs(
            &parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n1 -2 0\n-1 2 0\n").unwrap()
        ));
        // ∃y∀x. x↔y : false.
        assert!(!eval_qdimacs(
            &parse_qdimacs("p cnf 2 2\ne 2 0\na 1 0\n1 -2 0\n-1 2 0\n").unwrap()
        ));
        // Free variable: (v1) is satisfiable.
        assert!(eval_qdimacs(&parse_qdimacs("p cnf 1 1\n1 0\n").unwrap()));
        // Contradiction.
        assert!(!eval_qdimacs(
            &parse_qdimacs("p cnf 1 2\n1 0\n-1 0\n").unwrap()
        ));
    }
}
