//! Error type for dataset construction and loading.

use std::fmt;

/// Errors from dataset validation, generation or CSV parsing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DatasetError {
    /// Feature row count differs from label count.
    LengthMismatch {
        /// Number of feature rows.
        features: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A feature row has the wrong number of columns.
    RaggedRow {
        /// Row index.
        row: usize,
        /// Expected column count.
        expected: usize,
        /// Actual column count.
        found: usize,
    },
    /// A label is not in `0..classes`.
    LabelOutOfRange {
        /// Row index.
        row: usize,
        /// The offending label.
        label: usize,
        /// Number of classes.
        classes: usize,
    },
    /// A flat row-major feature buffer whose length is not
    /// `width × rows`.
    BufferSize {
        /// Bytes the buffer holds.
        bytes: usize,
        /// Features per row.
        width: usize,
        /// Rows.
        rows: usize,
    },
    /// A dataset must have at least one class.
    NoClasses,
    /// A split that needs samples (e.g. training data) has none.
    NoSamples,
    /// A CSV cell failed to parse as a number.
    ParseCell {
        /// 1-based line number.
        line: usize,
        /// 0-based column index.
        column: usize,
        /// Cell contents.
        cell: String,
    },
    /// A CSV line had no columns at all.
    EmptyLine {
        /// 1-based line number.
        line: usize,
    },
    /// A split fraction was outside `(0, 1)`.
    BadSplitFraction {
        /// The offending fraction.
        fraction: f64,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { features, labels } => {
                write!(f, "{features} feature rows but {labels} labels")
            }
            DatasetError::RaggedRow {
                row,
                expected,
                found,
            } => {
                write!(f, "row {row} has {found} columns, expected {expected}")
            }
            DatasetError::LabelOutOfRange {
                row,
                label,
                classes,
            } => {
                write!(f, "row {row} has label {label}, outside 0..{classes}")
            }
            DatasetError::BufferSize { bytes, width, rows } => {
                write!(
                    f,
                    "feature buffer holds {bytes} bytes, not {width} × {rows}"
                )
            }
            DatasetError::NoClasses => write!(f, "dataset must declare at least one class"),
            DatasetError::NoSamples => write!(f, "dataset has no samples"),
            DatasetError::ParseCell { line, column, cell } => {
                write!(
                    f,
                    "line {line}, column {column}: cannot parse {cell:?} as a number"
                )
            }
            DatasetError::EmptyLine { line } => write!(f, "line {line} is empty"),
            DatasetError::BadSplitFraction { fraction } => {
                write!(f, "split fraction {fraction} outside (0, 1)")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = DatasetError::ParseCell {
            line: 3,
            column: 2,
            cell: "abc".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('2') && msg.contains("abc"));
    }
}
