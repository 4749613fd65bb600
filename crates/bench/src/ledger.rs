//! The ratio ledger: `BENCH_RATIOS.json` and the gate CI runs on it.
//!
//! Every entry is a same-run ratio — two closures timed back to back in one
//! process and divided — so host speed cancels out and the number means the
//! same on any machine. All of them are higher-is-better. The file is a flat
//! JSON object (ratio name → value) read and written through
//! [`joinmi_serve::json::Json`].

use std::collections::BTreeMap;

use joinmi_serve::json::Json;

/// A ratio regresses when it falls below `baseline / (1 + MAX_REGRESSION)`.
pub const MAX_REGRESSION: f64 = 0.25;

/// Ratio name → value, in the (sorted) order the file holds them.
pub type Ledger = BTreeMap<String, f64>;

/// Renders a ledger as its JSON file body.
#[must_use]
pub fn render(ledger: &Ledger) -> String {
    let object = ledger
        .iter()
        .map(|(name, &value)| (name.clone(), Json::Float(value)))
        .collect();
    Json::Obj(object).encode() + "\n"
}

/// Parses a ledger file: one non-empty JSON object of numbers.
pub fn parse(text: &str) -> Result<Ledger, String> {
    let Json::Obj(object) = Json::parse(text).map_err(|e| e.to_string())? else {
        return Err("the ledger must be a JSON object".to_owned());
    };
    if object.is_empty() {
        return Err("the ledger holds no ratios".to_owned());
    }
    object
        .into_iter()
        .map(|(name, value)| match value.as_f64() {
            Some(v) => Ok((name, v)),
            None => Err(format!("`{name}` is not a number")),
        })
        .collect()
}

/// One baseline ratio next to the current run's.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Ratio name.
    pub name: String,
    /// Committed value.
    pub baseline: f64,
    /// Fresh value.
    pub current: f64,
    /// `true` when the fresh value fell beyond [`MAX_REGRESSION`].
    pub regressed: bool,
}

/// Compares every baseline ratio with the current run. A ratio the current
/// run lacks is an error: the ledger must not silently lose a row. Ratios
/// only the current run has are not gated.
pub fn compare(baseline: &Ledger, current: &Ledger) -> Result<Vec<Comparison>, String> {
    baseline
        .iter()
        .map(|(name, &base)| {
            let &now = current
                .get(name)
                .ok_or_else(|| format!("the current run is missing `{name}`"))?;
            Ok(Comparison {
                name: name.clone(),
                baseline: base,
                current: now,
                regressed: now < base / (1.0 + MAX_REGRESSION),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(pairs: &[(&str, f64)]) -> Ledger {
        pairs.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
    }

    fn regressed(baseline: f64, current: f64) -> bool {
        let report = compare(&ledger(&[("r", baseline)]), &ledger(&[("r", current)])).unwrap();
        report[0].regressed
    }

    #[test]
    fn render_parse_round_trip() {
        let data = ledger(&[
            ("knn/kernel_speedup_vs_scalar", 2.2),
            ("query/early_term_speedup", 2.0),
            ("store/append_vs_reingest", 25.7),
            ("store/compacted_load_speedup", 6.8),
        ]);
        let text = render(&data);
        assert_eq!(parse(&text).unwrap(), data);
        // The file is exactly what `Json::encode` writes for it.
        assert_eq!(Json::parse(&text).unwrap().encode() + "\n", text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("[]").is_err());
        assert!(parse("{}").is_err());
        assert!(parse("{\"a\": nope}").is_err());
        assert!(parse("{\"a\": \"2.0\"}").is_err());
        assert!(parse("{\"a\" 1.0}").is_err());
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        // 6.0 falls more than 25 % to 4.0 …
        assert!(regressed(6.0, 4.0));
        // … and to just under 6.0 / 1.25.
        assert!(regressed(6.0, 4.79));
    }

    #[test]
    fn within_threshold_passes() {
        assert!(!regressed(6.0, 6.0));
        assert!(!regressed(6.0, 5.5));
        assert!(!regressed(6.0, 4.81));
    }

    #[test]
    fn rising_ratio_passes() {
        assert!(!regressed(6.0, 9.0));
        assert!(!regressed(2.0, 200.0));
    }

    #[test]
    fn key_missing_from_current_is_an_error() {
        let baseline = ledger(&[("a", 2.0), ("b", 3.0)]);
        let current = ledger(&[("a", 2.0), ("c", 3.0)]);
        let err = compare(&baseline, &current).unwrap_err();
        assert!(err.contains("`b`"), "{err}");
    }

    #[test]
    fn key_missing_from_baseline_is_not_gated() {
        let baseline = ledger(&[("a", 2.0)]);
        let current = ledger(&[("a", 2.0), ("new", 0.1)]);
        let report = compare(&baseline, &current).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].name, "a");
        assert!(!report[0].regressed);
    }
}
