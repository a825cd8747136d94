//! Hand-written expected verdicts (`expected/*.txt`, paper Table 2).
//!
//! The reference every verdict is checked against comes from these files,
//! never from the program under test. They are compiled in, so editing one
//! changes the next build's checks.

use hh_isa::{Mnemonic, ALL_MNEMONICS};

/// The expected classification of `default_candidates()` on one core family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// The verified safe set (also the proposed set of the learn-only
    /// workloads), sorted by mnemonic name.
    pub safe: Vec<Mnemonic>,
    /// Candidates that classification must reject, sorted by mnemonic name.
    pub rejected: Vec<Mnemonic>,
}

/// Expected verdicts on every BoomLite variant.
pub const BOOMLITE: &str = include_str!("../expected/boomlite.txt");
/// Expected verdicts on RocketLite.
pub const ROCKETLITE: &str = include_str!("../expected/rocketlite.txt");

/// Resolves an assembly mnemonic. Accepts the program's own spelling
/// (`Mnemonic::name`) and the lower-cased variant name, which differ only
/// where the ISA table carries a typo (`sltui` for `sltiu`).
fn mnemonic(token: &str) -> Option<Mnemonic> {
    ALL_MNEMONICS
        .iter()
        .copied()
        .find(|m| m.name() == token || format!("{m:?}").to_lowercase() == token)
}

/// Sorted, deduplicated copy — set comparison for mnemonic lists.
pub fn sorted_set(set: &[Mnemonic]) -> Vec<Mnemonic> {
    let mut v = set.to_vec();
    v.sort_by_key(|m| m.name());
    v.dedup();
    v
}

impl Expected {
    /// Parses an expected-verdict file: `safe <mnemonic>` and
    /// `rejected <mnemonic>` lines, `#` comments, blank lines.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut safe = Vec::new();
        let mut rejected = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let (verdict, name) = (words.next(), words.next());
            let (Some(verdict), Some(name), None) = (verdict, name, words.next()) else {
                return Err(format!("line {}: expected `<verdict> <mnemonic>`", i + 1));
            };
            let m = mnemonic(name)
                .ok_or_else(|| format!("line {}: unknown mnemonic {name:?}", i + 1))?;
            match verdict {
                "safe" => safe.push(m),
                "rejected" => rejected.push(m),
                other => return Err(format!("line {}: unknown verdict {other:?}", i + 1)),
            }
        }
        let (safe, rejected) = (sorted_set(&safe), sorted_set(&rejected));
        if safe.is_empty() {
            return Err("no safe instruction listed".to_string());
        }
        if let Some(m) = safe.iter().find(|m| rejected.contains(m)) {
            return Err(format!("{} listed as both safe and rejected", m.name()));
        }
        Ok(Expected { safe, rejected })
    }

    /// Checks a classification result against this expectation.
    pub fn check(&self, safe: &[Mnemonic], rejected: &[Mnemonic]) -> Result<(), String> {
        let names = |v: &[Mnemonic]| v.iter().map(|m| m.name()).collect::<Vec<_>>().join(" ");
        if sorted_set(safe) != self.safe {
            return Err(format!(
                "safe set [{}] differs from expected [{}]",
                names(&sorted_set(safe)),
                names(&self.safe)
            ));
        }
        if sorted_set(rejected) != self.rejected {
            return Err(format!(
                "rejected set [{}] differs from expected [{}]",
                names(&sorted_set(rejected)),
                names(&self.rejected)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_isa::InstrClass;

    #[test]
    fn expected_files_parse_to_known_mnemonics() {
        let boom = Expected::parse(BOOMLITE).expect("boomlite.txt parses");
        let rocket = Expected::parse(ROCKETLITE).expect("rocketlite.txt parses");
        // Table 2: BOOM = ALU - auipc + MUL; Rocket = ALU.
        assert_eq!(boom.safe.len(), 24);
        assert!(!boom.safe.contains(&Mnemonic::Auipc));
        assert!(boom.safe.contains(&Mnemonic::Mulhsu));
        assert!(boom.safe.contains(&Mnemonic::Sltiu));
        assert_eq!(rocket.safe.len(), 21);
        assert!(rocket.safe.iter().all(|m| m.class() == InstrClass::Alu));
        assert!(rocket.rejected.contains(&Mnemonic::Mul));
        // Both files classify exactly the default candidate set.
        for e in [&boom, &rocket] {
            let mut all = e.safe.clone();
            all.extend(&e.rejected);
            assert_eq!(sorted_set(&all), sorted_set(&veloct::default_candidates()));
        }
    }

    #[test]
    fn both_spellings_of_sltiu_resolve() {
        assert_eq!(mnemonic("sltiu"), Some(Mnemonic::Sltiu));
        assert_eq!(mnemonic(Mnemonic::Sltiu.name()), Some(Mnemonic::Sltiu));
        assert_eq!(mnemonic("fence"), None);
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(Expected::parse("safe add extra").is_err());
        assert!(Expected::parse("maybe add").is_err());
        assert!(Expected::parse("safe fence").is_err());
        assert!(Expected::parse("# nothing").is_err());
        assert!(Expected::parse("safe add\nrejected add").is_err());
    }

    #[test]
    fn a_corrupted_entry_fails_the_verdict_check() {
        let good = Expected::parse(BOOMLITE).unwrap();
        assert!(good.check(&good.safe, &good.rejected).is_ok());
        // Flip one entry: `auipc` expected safe. The real classification no
        // longer matches, so every op of the run is reported failed.
        let corrupted = Expected::parse(&BOOMLITE.replace("rejected auipc", "safe auipc")).unwrap();
        let err = corrupted.check(&good.safe, &good.rejected).unwrap_err();
        assert!(err.contains("differs from expected"), "{err}");
    }
}
