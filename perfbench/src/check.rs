//! The output check every sample passes: frequency bits, cutset count
//! and an order-sensitive digest of the reported cutset list, compared
//! against a reference made once per fixture.

use sdft_core::AnalysisResult;
use sdft_ft::Cutset;
use std::fmt::Write as _;

/// What a run answered, reduced to the fields the check compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// `frequency.to_bits()`.
    pub frequency_bits: u64,
    /// Minimal cutsets reported.
    pub cutsets: usize,
    /// [`list_digest`] over the list in reported order.
    pub digest: u64,
    /// `exact_static.to_bits()`, when the backend reports the exact
    /// static probability.
    pub exact_bits: Option<u64>,
}

/// 64-bit FNV-1a: the digest of fixtures, cutset lists and reports (an
/// identity check, not a cryptographic one).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feed bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feed a cutset's event ids followed by a separator.
    fn cutset(self, cutset: &Cutset) -> Self {
        cutset
            .events()
            .iter()
            .fold(self, |h, e| {
                let id = u32::try_from(e.index()).expect("node ids fit in u32");
                h.bytes(&id.to_le_bytes())
            })
            .bytes(&u32::MAX.to_le_bytes())
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of the event ids of each cutset in list order, so both the
/// membership and the order of the list change it.
pub fn list_digest<'a>(list: impl IntoIterator<Item = &'a Cutset>) -> u64 {
    list.into_iter().fold(Fnv::default(), Fnv::cutset).finish()
}

/// Digest of a reported list: each cutset with its probability's bits,
/// in reported order.
pub fn report_digest<'a>(reports: impl IntoIterator<Item = (&'a Cutset, f64)>) -> u64 {
    reports
        .into_iter()
        .fold(Fnv::default(), |h, (c, p)| {
            h.cutset(c).bytes(&p.to_bits().to_le_bytes())
        })
        .finish()
}

impl Outcome {
    /// Reduce an analysis result.
    pub fn of(result: &AnalysisResult) -> Outcome {
        Outcome {
            frequency_bits: result.frequency.to_bits(),
            cutsets: result.cutsets.len(),
            digest: list_digest(result.cutsets.iter().map(|c| &c.cutset)),
            exact_bits: result.exact_static.map(f64::to_bits),
        }
    }

    /// Compare against `reference`; `Err` names the first difference.
    /// `exact` says whether the exact static probability is part of the
    /// answer (the BDD workload must report it).
    pub fn check(&self, reference: &Outcome, exact: bool) -> Result<(), String> {
        if self.frequency_bits != reference.frequency_bits {
            return Err(format!(
                "frequency bits {:016x} differ from the reference {:016x}",
                self.frequency_bits, reference.frequency_bits
            ));
        }
        if self.cutsets != reference.cutsets {
            return Err(format!(
                "{} cutsets, the reference has {}",
                self.cutsets, reference.cutsets
            ));
        }
        if self.digest != reference.digest {
            return Err(format!(
                "cutset-list digest {:016x} differs from the reference {:016x}",
                self.digest, reference.digest
            ));
        }
        if exact {
            match (self.exact_bits, reference.exact_bits) {
                (Some(a), Some(b)) if a == b => {}
                (a, b) => {
                    return Err(format!(
                        "exact static probability {a:x?} differs from the reference {b:x?}"
                    ))
                }
            }
        }
        Ok(())
    }

    /// The reference file format: one `key value` pair per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "frequency {:016x}", self.frequency_bits);
        let _ = writeln!(out, "cutsets {}", self.cutsets);
        let _ = writeln!(out, "digest {:016x}", self.digest);
        if let Some(bits) = self.exact_bits {
            let _ = writeln!(out, "exact {bits:016x}");
        }
        out
    }

    /// Parse [`Outcome::to_text`] output.
    pub fn from_text(text: &str) -> Result<Outcome, String> {
        let mut frequency = None;
        let mut outcome = Outcome {
            frequency_bits: 0,
            cutsets: usize::MAX,
            digest: 0,
            exact_bits: None,
        };
        let hex = |v: &str| u64::from_str_radix(v, 16).map_err(|e| format!("{v:?}: {e}"));
        for line in text.lines() {
            match line.split_once(' ') {
                Some(("frequency", v)) => frequency = Some(hex(v)?),
                Some(("cutsets", v)) => {
                    outcome.cutsets = v.parse().map_err(|e| format!("{v:?}: {e}"))?;
                }
                Some(("digest", v)) => outcome.digest = hex(v)?,
                Some(("exact", v)) => outcome.exact_bits = Some(hex(v)?),
                _ => return Err(format!("malformed reference line {line:?}")),
            }
        }
        match frequency {
            Some(bits) if outcome.cutsets != usize::MAX => {
                outcome.frequency_bits = bits;
                Ok(outcome)
            }
            _ => Err("incomplete reference".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdft_ft::NodeId;

    fn cutset(ids: &[usize]) -> Cutset {
        Cutset::new(ids.iter().map(|&i| NodeId::from_index(i)))
    }

    fn outcome(frequency: f64, list: &[Cutset]) -> Outcome {
        Outcome {
            frequency_bits: frequency.to_bits(),
            cutsets: list.len(),
            digest: list_digest(list),
            exact_bits: None,
        }
    }

    #[test]
    fn check_rejects_a_one_ulp_frequency_perturbation() {
        let list = [cutset(&[1, 2]), cutset(&[3])];
        let reference = outcome(2.5e-10, &list);
        let nudged = f64::from_bits(2.5e-10f64.to_bits() + 1);
        assert!(outcome(2.5e-10, &list).check(&reference, false).is_ok());
        assert!(outcome(nudged, &list).check(&reference, false).is_err());
    }

    #[test]
    fn check_rejects_a_swapped_cutset_pair() {
        let list = [cutset(&[1, 2]), cutset(&[3]), cutset(&[4, 5])];
        let swapped = [cutset(&[1, 2]), cutset(&[4, 5]), cutset(&[3])];
        let reference = outcome(1e-9, &list);
        assert!(outcome(1e-9, &swapped).check(&reference, false).is_err());
    }

    #[test]
    fn check_requires_equal_exact_bits_only_when_asked() {
        let list = [cutset(&[1])];
        let mut reference = outcome(1e-9, &list);
        reference.exact_bits = Some(1e-9f64.to_bits());
        let missing = outcome(1e-9, &list);
        assert!(missing.check(&reference, false).is_ok());
        assert!(missing.check(&reference, true).is_err());
    }

    #[test]
    fn reference_text_round_trips() {
        let mut reference = outcome(3.25e-11, &[cutset(&[7, 9])]);
        reference.exact_bits = Some(3.0e-11f64.to_bits());
        assert_eq!(Outcome::from_text(&reference.to_text()), Ok(reference));
    }
}
