//! Minimal DIMACS CNF writer.
//!
//! [`from_solver`] captures the formula a proof stream refutes, and
//! [`write_dimacs`] renders it: certificates identify each obligation by a
//! hash of that text. Dumping a query for an external solver is the same
//! two calls.

use crate::lit::Lit;
use crate::solver::Solver;

/// A CNF formula: the number of variables and the clause list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (DIMACS header value).
    pub num_vars: usize,
    /// Clauses over literals `1..=num_vars` encoded as [`Lit`]s.
    pub clauses: Vec<Vec<Lit>>,
}

/// Renders a CNF in DIMACS format.
pub fn to_dimacs(cnf: &Cnf) -> String {
    let mut out = String::new();
    let _ = write_dimacs(cnf, &mut out);
    out
}

/// Streams the DIMACS text of `cnf` — byte for byte what [`to_dimacs`]
/// returns — into `out`, for consumers (hashers, files) that do not need
/// the text as one `String`.
///
/// # Errors
///
/// Whatever `out` reports.
pub fn write_dimacs<W: std::fmt::Write>(cnf: &Cnf, out: &mut W) -> std::fmt::Result {
    writeln!(out, "p cnf {} {}", cnf.num_vars, cnf.clauses.len())?;
    for clause in &cnf.clauses {
        for &l in clause {
            let n = l.var().index() as i64 + 1;
            write!(out, "{} ", if l.is_positive() { n } else { -n })?;
        }
        writeln!(out, "0")?;
    }
    Ok(())
}

/// Captures a solver's current formula as a CNF.
///
/// [`Solver::add_clause`] simplifies clauses as they land: unit clauses
/// vanish into the level-0 trail, falsified literals are stripped, satisfied
/// clauses are dropped. A naive dump of the clause database would therefore
/// *not* round-trip — in particular every input unit would be missing. This
/// dump re-materialises the level-0 units as unit clauses (first, in trail
/// order) followed by the live non-learnt clauses, which is exactly the
/// formula a DRAT proof stream from this solver refutes. Must be called at
/// decision level 0.
pub fn from_solver(s: &Solver) -> Cnf {
    Cnf {
        num_vars: s.num_vars(),
        clauses: s.formula_clauses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    #[test]
    fn writes_header_and_zero_terminated_clauses() {
        let v = |i| Var::from_index(i);
        let cnf = Cnf {
            num_vars: 3,
            clauses: vec![
                vec![v(0).positive(), v(1).negative()],
                vec![v(2).positive()],
            ],
        };
        let text = "p cnf 3 2\n1 -2 0\n3 0\n";
        assert_eq!(to_dimacs(&cnf), text);
        let mut streamed = String::new();
        write_dimacs(&cnf, &mut streamed).unwrap();
        assert_eq!(streamed, text);
    }

    #[test]
    fn solver_dump_preserves_level0_units() {
        // Units are simplified into the trail by `add_clause`; the dump must
        // re-materialise them, or the formula a proof refutes would lose
        // every input unit.
        let mut s = Solver::new();
        let x: Vec<Lit> = (0..4).map(|_| s.new_var().positive()).collect();
        s.add_clause(&[x[0]]);
        s.add_clause(&[!x[0], x[1], x[2]]);
        s.add_clause(&[!x[2]]);
        s.add_clause(&[x[1], x[3]]);
        let dumped = from_solver(&s);
        assert_eq!(dumped.num_vars, 4);
        // The unit [1] fixed var 1 and propagation of [-1 2 3] with [-3]
        // fixed var 2; all three units must reappear in the dump.
        let units: Vec<&Vec<Lit>> = dumped.clauses.iter().filter(|c| c.len() == 1).collect();
        for unit in [x[0], !x[2], x[1]] {
            assert!(units.contains(&&vec![unit]), "unit {unit:?} lost");
        }
    }
}
