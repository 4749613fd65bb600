//! The names of the sketching strategies the paper evaluates.
//!
//! This crate builds TUPSK only ([`crate::tupsk`]). The four baselines are
//! built by `joinmi_eval::baselines`, which dispatches on this enum. A
//! discovery query names its kind with it too, and refuses any kind but
//! TUPSK.

use std::fmt;
use std::str::FromStr;

/// The sketching strategies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SketchKind {
    /// Tuple-based sampling — the proposed method (Section IV-B).
    Tupsk,
    /// Two-level sampling baseline (Section IV-A).
    Lv2sk,
    /// Two-level sampling with a priority-sampling first level.
    Prisk,
    /// Independent Bernoulli sampling (no coordination).
    Indsk,
    /// Correlation Sketches extended to MI estimation.
    Csk,
}

impl SketchKind {
    /// All strategies, in the order used by the paper's tables.
    pub const ALL: [Self; 5] = [
        Self::Csk,
        Self::Indsk,
        Self::Lv2sk,
        Self::Prisk,
        Self::Tupsk,
    ];

    /// Upper-case name as used in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Tupsk => "TUPSK",
            Self::Lv2sk => "LV2SK",
            Self::Prisk => "PRISK",
            Self::Indsk => "INDSK",
            Self::Csk => "CSK",
        }
    }
}

impl fmt::Display for SketchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SketchKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "TUPSK" => Ok(Self::Tupsk),
            "LV2SK" => Ok(Self::Lv2sk),
            "PRISK" => Ok(Self::Prisk),
            "INDSK" => Ok(Self::Indsk),
            "CSK" => Ok(Self::Csk),
            other => Err(format!("unknown sketch kind `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for kind in SketchKind::ALL {
            let parsed: SketchKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            let parsed_lower: SketchKind = kind.name().to_lowercase().parse().unwrap();
            assert_eq!(parsed_lower, kind);
        }
        assert!("BOGUS".parse::<SketchKind>().is_err());
    }
}
