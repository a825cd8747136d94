//! Boolean variables and literals.
//!
//! A [`Var`] is an index into the solver's variable table; a [`Lit`] is a
//! variable together with a polarity, packed into a single `u32` so the two
//! literals of variable `v` occupy codes `2v` (positive) and `2v + 1`
//! (negative). The packing lets literal-indexed tables (watch lists, seen
//! flags) be flat vectors.

use std::fmt;
use std::ops::Not;

/// A propositional variable.
///
/// Variables are created by [`crate::Solver::new_var`] and are densely
/// numbered from zero.
///
/// ```
/// use hh_sat::Solver;
/// let mut s = Solver::new();
/// let v = s.new_var();
/// assert_eq!(v.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The largest index a variable can have: both literal codes of the
    /// variable must fit a `u32` below `u32::MAX`, which the watch lists
    /// keep as a sentinel. Parsers of outside input check against this
    /// before calling [`Var::from_index`].
    pub const MAX_INDEX: usize = (u32::MAX >> 1) as usize - 1;

    /// Constructs a variable from its dense index, which must not exceed
    /// [`Var::MAX_INDEX`] (a larger one would be silently truncated).
    #[inline]
    pub fn from_index(index: usize) -> Var {
        debug_assert!(
            index <= Var::MAX_INDEX,
            "variable index {index} out of range"
        );
        Var(index as u32)
    }

    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// The literal of this variable with the given polarity
    /// (`true` = positive).
    #[inline]
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a [`Var`] with a polarity.
///
/// The `repr(transparent)` layout guarantee lets the clause arena store
/// literals as raw `u32` codes and hand out `&[Lit]` views of the same
/// memory without copying.
///
/// ```
/// use hh_sat::{Solver, Lit};
/// let mut s = Solver::new();
/// let v = s.new_var();
/// let p = v.positive();
/// assert_eq!(!p, v.negative());
/// assert_eq!((!p).var(), v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The variable underlying this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this literal is the positive occurrence of its variable.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The packed code (`2 * var + sign`), usable as a table index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.0 >> 1)
        } else {
            write!(f, "!x{}", self.0 >> 1)
        }
    }
}

/// Three-valued assignment: true, false or unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    /// Truth value of a literal given the value of its variable.
    #[inline]
    pub(crate) fn of_lit(self, lit: Lit) -> LBool {
        match (self, lit.is_positive()) {
            (LBool::Undef, _) => LBool::Undef,
            (LBool::True, true) | (LBool::False, false) => LBool::True,
            _ => LBool::False,
        }
    }

    #[inline]
    pub(crate) fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_roundtrips() {
        let v = Var::from_index(7);
        assert_eq!(v.positive().code(), 14);
        assert_eq!(v.negative().code(), 15);
        assert_eq!(Lit::from_code(14), v.positive());
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.positive().is_positive());
        assert!(!v.negative().is_positive());
    }

    #[test]
    fn negation_is_involutive() {
        let v = Var::from_index(3);
        assert_eq!(!!v.positive(), v.positive());
        assert_eq!(!v.positive(), v.negative());
    }

    #[test]
    fn lit_constructor_respects_polarity() {
        let v = Var::from_index(2);
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }

    #[test]
    fn lbool_of_lit() {
        let v = Var::from_index(0);
        assert_eq!(LBool::True.of_lit(v.positive()), LBool::True);
        assert_eq!(LBool::True.of_lit(v.negative()), LBool::False);
        assert_eq!(LBool::False.of_lit(v.positive()), LBool::False);
        assert_eq!(LBool::False.of_lit(v.negative()), LBool::True);
        assert_eq!(LBool::Undef.of_lit(v.positive()), LBool::Undef);
    }

    #[test]
    fn display_forms() {
        let v = Var::from_index(4);
        assert_eq!(v.to_string(), "x4");
        assert_eq!(v.positive().to_string(), "x4");
        assert_eq!(v.negative().to_string(), "!x4");
    }
}
