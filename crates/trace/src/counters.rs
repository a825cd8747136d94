//! The run-counter table: the one place a counter of a learning run's
//! `Stats` projection is declared.
//!
//! Each row gives the counter's field in [`Counters`], its trace-schema name
//! (the name `Stats::counters()` reports it under and, where a live
//! `counter!` records it too, the name of that trace counter), how it folds
//! when two queries, workers or runs combine, and its one-line meaning.
//! `hh_smt::QueryTelemetry` carries one query's [`Counters`] delta,
//! `hhoudini::Stats` the run's total, and `docs/TRACE_SCHEMA.md`'s *Stats
//! projection* table is checked against [`COUNTERS`] row for row.
//!
//! Adding a counter is one row here plus the line that records it.

/// How a counter combines across queries, workers and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Work counts add.
    Sum,
    /// High-water gauges (the `*_bytes` rows) keep the largest reading.
    Max,
}

impl Fold {
    /// Combines two readings of one counter.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Fold::Sum => a + b,
            Fold::Max => a.max(b),
        }
    }
}

/// One row of [`COUNTERS`].
#[derive(Debug)]
pub struct CounterDef {
    /// The trace-schema name, e.g. `"sat.conflicts"`.
    pub name: &'static str,
    /// How two readings combine.
    pub fold: Fold,
    /// What the counter counts, in one line.
    pub meaning: &'static str,
}

macro_rules! counter_table {
    ($($field:ident, $name:literal, $fold:ident, $meaning:literal;)*) => {
        /// One value per row of [`COUNTERS`]: a query's delta or a run's
        /// total.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(#[doc = $meaning] pub $field: u64,)*
        }

        /// The counter table, in the order `Stats::counters()` reports it.
        pub const COUNTERS: &[CounterDef] = &[
            $(CounterDef { name: $name, fold: Fold::$fold, meaning: $meaning },)*
        ];

        impl Counters {
            /// The values in table order.
            pub fn values(&self) -> [u64; COUNTERS.len()] {
                [$(self.$field),*]
            }

            /// The counters holding `values`, given in table order.
            pub fn from_values(values: [u64; COUNTERS.len()]) -> Counters {
                let [$($field),*] = values;
                Counters { $($field),* }
            }
        }
    };
}

counter_table! {
    queries, "engine.query", Sum,
        "abduction queries committed";
    memo_hits, "engine.memo.hit", Sum,
        "targets named again after the memo table solved them (Algorithm 1, line 3)";
    backtracks, "engine.backtrack", Sum,
        "memoised solutions swept because a member predicate failed";
    session_resident_bytes, "smt.session.resident_bytes", Max,
        "heap bytes of the largest abduction session when its query ended and it was dropped";
    word_const_folds, "smt.word.const_folds", Sum,
        "word-level constant folds during pre-blast simplification";
    word_rewrites, "smt.word.rewrites", Sum,
        "word-level algebraic rewrites during pre-blast simplification";
    word_strash_hits, "smt.word.strash_hits", Sum,
        "structural-hashing merges during pre-blast simplification";
    sat_solves, "sat.solves", Sum,
        "SAT solve calls: one per query plus its core-trimming re-solves";
    sat_propagations, "sat.propagations", Sum,
        "literals propagated";
    sat_conflicts, "sat.conflicts", Sum,
        "conflicts analysed";
    sat_reduces, "sat.reduce", Sum,
        "learnt-database reduction rounds";
    sat_arena_bytes, "sat.arena_bytes", Max,
        "largest clause arena of any session after a query";
    sat_chrono_backtracks, "sat.chrono_backtracks", Sum,
        "conflicts resolved by chronological backtracking instead of a backjump";
    sat_watch_bytes, "sat.watch_bytes", Max,
        "largest watch store of any session after a query";
    examples_cycles, "examples.cycles", Sum,
        "base-design cycles simulated to generate the positive examples";
    examples_raw, "examples.raw", Sum,
        "product states folded into the miner's example facts, duplicates included";
    examples_unique, "examples.unique", Sum,
        "distinct product states, told apart by 128-bit row fingerprints";
}

impl Counters {
    /// Folds `other` into `self`, each row by its [`Fold`].
    pub fn merge(&mut self, other: &Counters) {
        let mut values = self.values();
        for ((value, other), def) in values.iter_mut().zip(other.values()).zip(COUNTERS) {
            *value = def.fold.apply(*value, other);
        }
        *self = Counters::from_values(values);
    }

    /// `(name, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        COUNTERS.iter().map(|def| def.name).zip(self.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_bytes_gauges_fold_by_maximum() {
        for (i, def) in COUNTERS.iter().enumerate() {
            assert!(
                COUNTERS[..i].iter().all(|d| d.name != def.name),
                "{} is declared twice",
                def.name
            );
            assert_eq!(
                def.name.ends_with("_bytes"),
                def.fold == Fold::Max,
                "{}: byte gauges fold by maximum, counts by sum",
                def.name
            );
        }
        assert_eq!((Fold::Sum.apply(2, 3), Fold::Max.apply(2, 3)), (5, 3));
    }
}
