//! Feature binarization (paper §V).
//!
//! The decomposition (PERMUTE) parameters "do not admit a natural ordinal
//! relationship", so the paper one-hot encodes them before fitting the
//! surrogate ("feature binarization"). Integer parameters such as unroll
//! factors stay numeric.

/// One tunable parameter of a configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum Feature {
    /// Unordered choice among `cardinality` alternatives → one-hot encoded.
    Categorical { name: String, cardinality: usize },
    /// Ordered integer parameter → single numeric column, min-max scaled.
    Integer { name: String, min: f64, max: f64 },
}

impl Feature {
    pub fn name(&self) -> &str {
        match self {
            Feature::Categorical { name, .. } | Feature::Integer { name, .. } => name,
        }
    }

    /// Number of columns this feature occupies after binarization.
    pub fn width(&self) -> usize {
        match self {
            Feature::Categorical { cardinality, .. } => *cardinality,
            Feature::Integer { .. } => 1,
        }
    }
}

/// An ordered list of features describing a configuration vector.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FeatureSpace {
    pub features: Vec<Feature>,
}

impl FeatureSpace {
    pub fn new(features: Vec<Feature>) -> Self {
        FeatureSpace { features }
    }

    pub fn categorical(mut self, name: impl Into<String>, cardinality: usize) -> Self {
        assert!(cardinality >= 1);
        self.features.push(Feature::Categorical {
            name: name.into(),
            cardinality,
        });
        self
    }

    pub fn integer(mut self, name: impl Into<String>, min: f64, max: f64) -> Self {
        assert!(max >= min);
        self.features.push(Feature::Integer {
            name: name.into(),
            min,
            max,
        });
        self
    }

    /// Total binarized width.
    pub fn width(&self) -> usize {
        self.features.iter().map(|f| f.width()).sum()
    }

    /// Binarizes one raw configuration vector (one value per feature:
    /// category index for categoricals, value for integers).
    pub fn binarize(&self, raw: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.width());
        self.binarize_into(raw, &mut out);
        out
    }

    /// Binarizes into a caller-provided buffer (appended, not cleared), so
    /// hot paths can pack many configurations into one flat allocation.
    pub fn binarize_into(&self, raw: &[f64], out: &mut Vec<f64>) {
        assert_eq!(raw.len(), self.features.len(), "raw vector length");
        out.reserve(self.width());
        for (f, &v) in self.features.iter().zip(raw) {
            match f {
                Feature::Categorical { cardinality, name } => {
                    let idx = v as usize;
                    assert!(
                        (v.fract() == 0.0) && idx < *cardinality,
                        "category {v} out of range for {name}"
                    );
                    for c in 0..*cardinality {
                        out.push(if c == idx { 1.0 } else { 0.0 });
                    }
                }
                Feature::Integer { min, max, .. } => {
                    let span = (max - min).max(1e-12);
                    out.push((v - min) / span);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_sums_cardinalities() {
        let fs = FeatureSpace::default()
            .categorical("tx", 4)
            .categorical("ty", 5)
            .integer("uf", 1.0, 10.0);
        assert_eq!(fs.width(), 10);
    }

    #[test]
    fn one_hot_encoding() {
        let fs = FeatureSpace::default()
            .categorical("tx", 3)
            .integer("uf", 1.0, 5.0);
        let v = fs.binarize(&[2.0, 3.0]);
        assert_eq!(v, vec![0.0, 0.0, 1.0, 0.5]);
    }

    #[test]
    fn integer_scaling_endpoints() {
        let fs = FeatureSpace::default().integer("uf", 1.0, 10.0);
        assert_eq!(fs.binarize(&[1.0]), vec![0.0]);
        assert_eq!(fs.binarize(&[10.0]), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn category_bounds_checked() {
        let fs = FeatureSpace::default().categorical("tx", 3);
        let _ = fs.binarize(&[3.0]);
    }

    #[test]
    fn degenerate_integer_range() {
        let fs = FeatureSpace::default().integer("uf", 2.0, 2.0);
        let v = fs.binarize(&[2.0]);
        assert_eq!(v.len(), 1);
        assert!(v[0].is_finite());
    }
}
