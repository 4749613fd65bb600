//! Sample representations used by the estimators.
//!
//! Estimators operate on one of two representations of a column sample:
//! integer *codes* for discrete (categorical) variables or `f64` coordinates
//! for continuous / mixture variables. [`Variable`] packages a sample with
//! its representation and provides conversions from generic
//! [`Value`] slices.

use std::borrow::Cow;
use std::collections::HashMap;

use joinmi_table::{DataType, Value};

use crate::error::EstimatorError;
use crate::Result;

/// A sample of one variable in a representation an estimator can consume.
#[derive(Debug, Clone, PartialEq)]
pub enum Variable {
    /// Discrete (categorical) sample: values mapped to dense integer codes.
    Discrete(Vec<u32>),
    /// Continuous (or discrete-continuous mixture) sample.
    Continuous(Vec<f64>),
}

impl Variable {
    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Discrete(v) => v.len(),
            Self::Continuous(v) => v.len(),
        }
    }

    /// Returns `true` if the sample is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if this is the discrete representation.
    #[must_use]
    pub fn is_discrete(&self) -> bool {
        matches!(self, Self::Discrete(_))
    }

    /// Returns the continuous coordinates, converting discrete codes to
    /// floats when necessary (ordered discrete data can legitimately be fed
    /// to KSG-type estimators; see Section V-A of the paper).
    /// A continuous sample is borrowed, not copied.
    #[must_use]
    pub fn as_continuous(&self) -> Cow<'_, [f64]> {
        match self {
            Self::Discrete(v) => Cow::Owned(v.iter().map(|&c| f64::from(c)).collect()),
            Self::Continuous(v) => Cow::Borrowed(v),
        }
    }

    /// Builds a variable from values, choosing the representation from the
    /// column's data type: strings become discrete codes, numerics become
    /// continuous coordinates. NULLs must be filtered out by the caller
    /// (pairwise) before conversion; any NULL here is an error.
    pub fn from_values(values: &[Value], dtype: DataType) -> Result<Self> {
        match dtype {
            DataType::Str => Ok(Self::Discrete(discretize(values))),
            DataType::Int | DataType::Float => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    match v.as_f64() {
                        Some(x) => out.push(x),
                        None => {
                            return Err(EstimatorError::IncompatibleTypes {
                                estimator: "variable conversion".to_owned(),
                                detail: format!("non-numeric value `{v}` in a numeric column"),
                            })
                        }
                    }
                }
                Ok(Self::Continuous(out))
            }
        }
    }
}

/// Maps arbitrary values to dense integer codes (equal values share a code).
#[must_use]
pub fn discretize(values: &[Value]) -> Vec<u32> {
    let mut codes: HashMap<&Value, u32> = HashMap::new();
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        let next = codes.len() as u32;
        let code = *codes.entry(v).or_insert(next);
        out.push(code);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discretize_assigns_dense_codes() {
        let vals = vec![
            Value::from("a"),
            Value::from("b"),
            Value::from("a"),
            Value::from("c"),
        ];
        assert_eq!(discretize(&vals), vec![0, 1, 0, 2]);
    }

    #[test]
    fn from_values_string_column() {
        let vals = vec![Value::from("x"), Value::from("y"), Value::from("x")];
        let v = Variable::from_values(&vals, DataType::Str).unwrap();
        assert!(v.is_discrete());
        assert_eq!(v, Variable::Discrete(vec![0, 1, 0]));
    }

    #[test]
    fn from_values_numeric_column() {
        let vals = vec![Value::Int(1), Value::Float(2.5)];
        let v = Variable::from_values(&vals, DataType::Float).unwrap();
        assert_eq!(v, Variable::Continuous(vec![1.0, 2.5]));
        assert!(!v.is_discrete());
    }

    #[test]
    fn from_values_rejects_nulls_in_numeric() {
        let vals = vec![Value::Int(1), Value::Null];
        assert!(Variable::from_values(&vals, DataType::Int).is_err());
    }

    #[test]
    fn as_continuous_widens_codes() {
        let v = Variable::Discrete(vec![0, 2, 1]);
        assert_eq!(v.as_continuous(), vec![0.0, 2.0, 1.0]);
        let c = Variable::Continuous(vec![0.5, 1.5]);
        assert!(matches!(c.as_continuous(), Cow::Borrowed(&[0.5, 1.5])));
    }
}
