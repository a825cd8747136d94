//! Minimal DIMACS CNF reader/writer.
//!
//! Useful for debugging the bit-blaster (dump a query, inspect it with an
//! external solver) and for loading standard benchmark instances into
//! [`crate::Solver`] in tests.

use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// A parsed CNF formula: the number of variables and the clause list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (DIMACS header value).
    pub num_vars: usize,
    /// Clauses over literals `1..=num_vars` encoded as [`Lit`]s.
    pub clauses: Vec<Vec<Lit>>,
}

/// Errors produced by [`parse_dimacs`]. Every variant carries the 1-based
/// line number the problem was found on (0 when the input ended before the
/// expected content appeared, e.g. a missing header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDimacsError {
    /// The `p cnf <vars> <clauses>` header is missing or malformed.
    BadHeader {
        /// 1-based line of the offending header, or 0 if it never appeared.
        line: usize,
        /// The offending header text.
        text: String,
    },
    /// A token was not an integer literal.
    BadToken {
        /// 1-based line containing the token.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A literal refers to a variable beyond the header's variable count.
    VarOutOfRange {
        /// 1-based line containing the literal.
        line: usize,
        /// The out-of-range literal as written.
        literal: i64,
    },
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseDimacsError::BadHeader { line: 0, text } => {
                write!(f, "bad DIMACS header: {text}")
            }
            ParseDimacsError::BadHeader { line, text } => {
                write!(f, "line {line}: bad DIMACS header: {text}")
            }
            ParseDimacsError::BadToken { line, token } => {
                write!(f, "line {line}: bad DIMACS token: {token}")
            }
            ParseDimacsError::VarOutOfRange { line, literal } => {
                write!(f, "line {line}: variable out of range: {literal}")
            }
        }
    }
}

impl std::error::Error for ParseDimacsError {}

/// Parses DIMACS CNF text.
///
/// Comment lines (`c ...`) are skipped wherever they appear — including
/// interleaved inside a clause body, which some generators emit. The clause
/// count in the header is not enforced (many real files get it wrong).
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on malformed headers (a variable count above
/// [`Var::MAX_INDEX`]` + 1` included), non-integer tokens or out-of-range
/// variables; every error reports the 1-based line number.
pub fn parse_dimacs(text: &str) -> Result<Cnf, ParseDimacsError> {
    let mut num_vars: Option<usize> = None;
    let mut clauses = Vec::new();
    let mut current: Vec<Lit> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1; // 1-based for error reporting
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('p') {
            let parts: Vec<&str> = line.split_whitespace().collect();
            // A count above `Var::MAX_INDEX + 1` promises variables no
            // `Var` can name; accepting it would let the range check below
            // pass literals that `Var::from_index` silently truncates.
            let count = match parts[..] {
                [_, "cnf", vars, _] => vars.parse().ok(),
                _ => None,
            };
            match count {
                Some(n) if n <= Var::MAX_INDEX + 1 => num_vars = Some(n),
                _ => {
                    return Err(ParseDimacsError::BadHeader {
                        line: lineno,
                        text: line.to_string(),
                    })
                }
            }
            continue;
        }
        let nv = num_vars.ok_or(ParseDimacsError::BadHeader {
            line: lineno,
            text: "clause before header".into(),
        })?;
        for tok in line.split_whitespace() {
            let n: i64 = tok.parse().map_err(|_| ParseDimacsError::BadToken {
                line: lineno,
                token: tok.to_string(),
            })?;
            if n == 0 {
                clauses.push(std::mem::take(&mut current));
            } else {
                let v = n.unsigned_abs() as usize;
                if v > nv {
                    return Err(ParseDimacsError::VarOutOfRange {
                        line: lineno,
                        literal: n,
                    });
                }
                current.push(Var::from_index(v - 1).lit(n > 0));
            }
        }
    }
    if !current.is_empty() {
        clauses.push(current);
    }
    Ok(Cnf {
        num_vars: num_vars.ok_or(ParseDimacsError::BadHeader {
            line: 0,
            text: "missing".into(),
        })?,
        clauses,
    })
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

/// Loads a CNF into a fresh solver (creating `num_vars` variables).
pub fn load_into_solver(cnf: &Cnf) -> Solver {
    let mut s = Solver::new();
    for _ in 0..cnf.num_vars {
        s.new_var();
    }
    for clause in &cnf.clauses {
        s.add_clause(clause);
    }
    s
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
    use crate::SolveResult;

    #[test]
    fn roundtrip() {
        let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
        let cnf = parse_dimacs(text).unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        let re = parse_dimacs(&to_dimacs(&cnf)).unwrap();
        assert_eq!(cnf, re);
    }

    #[test]
    fn solve_parsed_instance() {
        let text = "p cnf 2 3\n1 2 0\n-1 2 0\n-2 0\n";
        let cnf = parse_dimacs(text).unwrap();
        let mut s = load_into_solver(&cnf);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            parse_dimacs("p dnf 1 1\n1 0\n"),
            Err(ParseDimacsError::BadHeader { line: 1, .. })
        ));
        assert!(matches!(
            parse_dimacs("1 0\n"),
            Err(ParseDimacsError::BadHeader { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_var() {
        assert!(matches!(
            parse_dimacs("p cnf 1 1\n2 0\n"),
            Err(ParseDimacsError::VarOutOfRange {
                line: 2,
                literal: 2
            })
        ));
    }

    #[test]
    fn rejects_variables_no_var_can_name() {
        // Once `p cnf 4294967295 1` was accepted and literal 2147483649
        // came back as variable 1 (`[Lit(0), Lit(0)]`) in release builds.
        let err = parse_dimacs("p cnf 4294967295 1\n2147483649 1 0\n").unwrap_err();
        assert!(
            matches!(err, ParseDimacsError::BadHeader { line: 1, .. }),
            "{err}"
        );
        let too_many = Var::MAX_INDEX + 2;
        assert!(matches!(
            parse_dimacs(&format!("c pad\np cnf {too_many} 0\n")),
            Err(ParseDimacsError::BadHeader { line: 2, .. })
        ));
        // Under the largest header there is, a literal beyond it is out of
        // range in either polarity.
        let most = Var::MAX_INDEX + 1;
        for literal in [2147483649i64, -2147483649, 2147483648] {
            assert_eq!(
                parse_dimacs(&format!("p cnf {most} 1\n1 {literal} 0\n")),
                Err(ParseDimacsError::VarOutOfRange { line: 2, literal })
            );
        }
        // The largest literal there is parses to the largest variable and
        // round-trips through the writer.
        let text = format!("p cnf {most} 1\n{most} -{most} 1 0\n");
        let cnf = parse_dimacs(&text).unwrap();
        let top = Var::from_index(Var::MAX_INDEX);
        assert_eq!(
            cnf.clauses,
            vec![vec![
                top.positive(),
                top.negative(),
                Var::from_index(0).positive()
            ]]
        );
        assert_eq!(to_dimacs(&cnf), text);
    }

    #[test]
    fn clause_without_trailing_zero() {
        let cnf = parse_dimacs("p cnf 2 1\n1 -2").unwrap();
        assert_eq!(cnf.clauses.len(), 1);
        assert_eq!(cnf.clauses[0].len(), 2);
    }

    #[test]
    fn comments_interleaved_inside_clause_bodies() {
        // A clause split across lines with comments in the middle must
        // parse as one clause.
        let text = "c top\np cnf 3 2\n1 -2\nc interrupting comment\n3 0\nc another\n-1\n2 0\n";
        let cnf = parse_dimacs(text).unwrap();
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(cnf.clauses[0].len(), 3);
        assert_eq!(cnf.clauses[1].len(), 2);
        let mut s = load_into_solver(&cnf);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn solver_dump_preserves_level0_units() {
        // Units are simplified into the trail by `add_clause`; the dump must
        // re-materialise them so writer -> parser -> loader round-trips to
        // an equivalent (indeed, identical) formula.
        let text = "p cnf 4 4\n1 0\n-1 2 3 0\n-3 0\n2 4 0\n";
        let cnf = parse_dimacs(text).unwrap();
        let s = load_into_solver(&cnf);
        let dumped = from_solver(&s);
        assert_eq!(dumped.num_vars, 4);
        // The unit [1] fixed var 1 and propagation of [-1 2 3] with [-3]
        // fixed var 2; both units must reappear in the dump.
        let units: Vec<&Vec<Lit>> = dumped.clauses.iter().filter(|c| c.len() == 1).collect();
        assert!(units.contains(&&vec![Var::from_index(0).positive()]));
        assert!(units.contains(&&vec![Var::from_index(2).negative()]));
        assert!(units.contains(&&vec![Var::from_index(1).positive()]));
        // Round-trip through text and back is stable.
        let re = parse_dimacs(&to_dimacs(&dumped)).unwrap();
        assert_eq!(dumped, re);
        let re2 = from_solver(&load_into_solver(&re));
        assert_eq!(re.num_vars, re2.num_vars);
        // A second trip may drop clauses the units already satisfy, but
        // never invents clauses and never loses a unit.
        let set1: std::collections::HashSet<Vec<Lit>> = re.clauses.iter().cloned().collect();
        let set2: std::collections::HashSet<Vec<Lit>> = re2.clauses.iter().cloned().collect();
        assert!(set2.is_subset(&set1));
        for c in &set1 {
            if c.len() == 1 {
                assert!(set2.contains(c), "unit {c:?} lost in round-trip");
            }
        }
    }

    #[test]
    fn errors_report_one_based_line_numbers() {
        // Comments and blank lines still advance the line counter.
        let text = "c one\n\np cnf 2 2\nc three-ish\n1 frog 0\n";
        match parse_dimacs(text) {
            Err(ParseDimacsError::BadToken { line, token }) => {
                assert_eq!(line, 5);
                assert_eq!(token, "frog");
            }
            other => panic!("expected BadToken, got {other:?}"),
        }
        let text = "p cnf 1 1\nc pad\nc pad\n-9 0\n";
        match parse_dimacs(text) {
            Err(ParseDimacsError::VarOutOfRange { line, literal }) => {
                assert_eq!(line, 4);
                assert_eq!(literal, -9);
            }
            other => panic!("expected VarOutOfRange, got {other:?}"),
        }
        let err = parse_dimacs("p cnf\n").unwrap_err();
        assert!(err.to_string().starts_with("line 1:"), "{err}");
        // A file with no header at all reports line 0 ("never appeared").
        let err = parse_dimacs("c only comments\n").unwrap_err();
        assert!(matches!(err, ParseDimacsError::BadHeader { line: 0, .. }));
    }
}
