//! Columnar storage: typed columns with validity bitmaps.
//!
//! The engine is column-at-a-time in the MonetDB tradition: each column is a
//! dense typed vector plus a validity [`Bitmap`] marking non-NULL rows.
//! Strings are dictionary-encoded (`codes` into a shared `dict`), which makes
//! categorical operations (grouping, dummy coding, contingency tables) work
//! on small integers instead of strings.

use std::collections::HashMap;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::value::{DataType, Value};

/// Borrowed pieces of a categorical column: codes, dictionary, validity.
pub type CategoricalParts<'a> = (&'a [u32], &'a Arc<Vec<String>>, &'a Bitmap);

/// Read-only row access shared by owned [`Column`]s and zero-copy
/// [`crate::view::ColumnView`]s.
///
/// The statistics and tree layers are generic over this trait, so the same
/// code path serves a whole column and a view-selected subset of it —
/// iteration order is the row order of the implementor, which keeps
/// results bit-identical between the two.
pub trait ColumnRead {
    /// Number of rows.
    fn len(&self) -> usize;

    /// Logical type of the column.
    fn data_type(&self) -> DataType;

    /// Cell value at `row`.
    fn get(&self, row: usize) -> Value;

    /// Numeric view of the cell at `row`: floats as-is, ints widened,
    /// bools as 0/1; NULL and categorical yield `None`.
    fn numeric_at(&self, row: usize) -> Option<f64>;

    /// Dictionary code at `row` for categorical columns (`None` when NULL
    /// or not categorical).
    fn code_at(&self, row: usize) -> Option<u32>;

    /// True when the cell at `row` is non-NULL.
    fn is_valid(&self, row: usize) -> bool;

    /// Dictionary of a categorical column (empty for other types).
    fn dictionary(&self) -> &[String];

    /// True when the column has zero rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL rows.
    fn null_count(&self) -> usize {
        (0..self.len()).filter(|&i| !self.is_valid(i)).count()
    }

    /// Number of distinct non-NULL values (floats by bit pattern, ints by
    /// value, categoricals by code, bools by truth value).
    ///
    /// The default is driven off the typed per-row accessors — it never
    /// materializes the column (`to_f64_vec`); implementors with payload
    /// access override it with slice/bitmap fast paths.
    fn distinct_count(&self) -> usize {
        match self.data_type() {
            DataType::Float64 => {
                let set: std::collections::HashSet<u64> = (0..self.len())
                    .filter_map(|i| self.numeric_at(i).map(f64::to_bits))
                    .collect();
                set.len()
            }
            DataType::Int64 => {
                let set: std::collections::HashSet<i64> = (0..self.len())
                    .filter_map(|i| match self.get(i) {
                        Value::Int(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                set.len()
            }
            DataType::Categorical => {
                let set: std::collections::HashSet<u32> =
                    (0..self.len()).filter_map(|i| self.code_at(i)).collect();
                set.len()
            }
            DataType::Bool => {
                let mut seen = [false, false];
                for i in 0..self.len() {
                    if let Some(v) = self.numeric_at(i) {
                        seen[(v != 0.0) as usize] = true;
                    }
                }
                usize::from(seen[0]) + usize::from(seen[1])
            }
        }
    }

    /// Dense dictionary codes plus validity bitmap, available zero-copy
    /// when the implementor is a categorical column covering every row in
    /// order (`None` otherwise). Statistics kernels use this to build
    /// count tables straight from code slices instead of probing
    /// `code_at` row by row.
    fn code_parts(&self) -> Option<(&[u32], &Bitmap)> {
        None
    }

    /// Materializes all rows as numeric values (see
    /// [`ColumnRead::numeric_at`]).
    fn to_f64_vec(&self) -> Vec<Option<f64>> {
        (0..self.len()).map(|i| self.numeric_at(i)).collect()
    }
}

impl ColumnRead for Column {
    fn len(&self) -> usize {
        Column::len(self)
    }

    fn data_type(&self) -> DataType {
        Column::data_type(self)
    }

    fn get(&self, row: usize) -> Value {
        Column::get(self, row)
    }

    fn numeric_at(&self, row: usize) -> Option<f64> {
        Column::numeric_at(self, row)
    }

    fn code_at(&self, row: usize) -> Option<u32> {
        Column::code_at(self, row)
    }

    fn is_valid(&self, row: usize) -> bool {
        self.validity().get(row)
    }

    fn dictionary(&self) -> &[String] {
        Column::dictionary(self)
    }

    fn null_count(&self) -> usize {
        Column::null_count(self)
    }

    fn distinct_count(&self) -> usize {
        Column::distinct_count(self)
    }

    fn code_parts(&self) -> Option<(&[u32], &Bitmap)> {
        match self {
            Column::Categorical {
                codes, validity, ..
            } => Some((codes, validity)),
            _ => None,
        }
    }
}

/// A typed column of values with a validity bitmap.
#[derive(Debug, Clone)]
pub enum Column {
    /// Continuous values.
    Float64 {
        /// Cell payloads; rows with a clear validity bit hold an arbitrary value.
        data: Vec<f64>,
        /// Set bit = value present, clear bit = NULL.
        validity: Bitmap,
    },
    /// Integer values.
    Int64 {
        /// Cell payloads.
        data: Vec<i64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Dictionary-encoded categorical values.
    Categorical {
        /// Per-row dictionary codes; meaningful only where validity is set.
        codes: Vec<u32>,
        /// Distinct category labels; shared on gather so zooming is cheap.
        dict: Arc<Vec<String>>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Boolean values.
    Bool {
        /// Cell payloads as a bitmap (bit per row).
        data: Bitmap,
        /// Validity bitmap.
        validity: Bitmap,
    },
}

impl Column {
    /// Builds a float column from optional values (`None` becomes NULL).
    pub fn from_f64s<I: IntoIterator<Item = Option<f64>>>(values: I) -> Self {
        let mut data = Vec::new();
        let mut valid = Vec::new();
        for v in values {
            match v {
                Some(x) => {
                    data.push(x);
                    valid.push(true);
                }
                None => {
                    data.push(f64::NAN);
                    valid.push(false);
                }
            }
        }
        Column::Float64 {
            data,
            validity: Bitmap::from_bools(&valid),
        }
    }

    /// Builds a dense float column with no NULLs.
    pub fn dense_f64(values: Vec<f64>) -> Self {
        let n = values.len();
        Column::Float64 {
            data: values,
            validity: Bitmap::new_set(n),
        }
    }

    /// Builds an integer column from optional values.
    pub fn from_i64s<I: IntoIterator<Item = Option<i64>>>(values: I) -> Self {
        let mut data = Vec::new();
        let mut valid = Vec::new();
        for v in values {
            match v {
                Some(x) => {
                    data.push(x);
                    valid.push(true);
                }
                None => {
                    data.push(0);
                    valid.push(false);
                }
            }
        }
        Column::Int64 {
            data,
            validity: Bitmap::from_bools(&valid),
        }
    }

    /// Builds a dense integer column with no NULLs.
    pub fn dense_i64(values: Vec<i64>) -> Self {
        let n = values.len();
        Column::Int64 {
            data: values,
            validity: Bitmap::new_set(n),
        }
    }

    /// Builds a categorical column, interning labels into a dictionary in
    /// first-appearance order.
    pub fn from_strs<'a, I: IntoIterator<Item = Option<&'a str>>>(values: I) -> Self {
        let mut codes = Vec::new();
        let mut valid = Vec::new();
        let mut dict: Vec<String> = Vec::new();
        let mut intern: HashMap<String, u32> = HashMap::new();
        for v in values {
            match v {
                Some(s) => {
                    let code = *intern.entry(s.to_owned()).or_insert_with(|| {
                        dict.push(s.to_owned());
                        (dict.len() - 1) as u32
                    });
                    codes.push(code);
                    valid.push(true);
                }
                None => {
                    codes.push(0);
                    valid.push(false);
                }
            }
        }
        Column::Categorical {
            codes,
            dict: Arc::new(dict),
            validity: Bitmap::from_bools(&valid),
        }
    }

    /// Builds a categorical column directly from codes and a dictionary.
    ///
    /// # Panics
    /// Panics if any valid code is out of dictionary bounds.
    pub fn from_codes(codes: Vec<u32>, dict: Arc<Vec<String>>, validity: Bitmap) -> Self {
        assert_eq!(
            codes.len(),
            validity.len(),
            "codes/validity length mismatch"
        );
        for (i, &c) in codes.iter().enumerate() {
            if validity.get(i) {
                assert!(
                    (c as usize) < dict.len(),
                    "code {c} out of bounds for dict of {} entries",
                    dict.len()
                );
            }
        }
        Column::Categorical {
            codes,
            dict,
            validity,
        }
    }

    /// Builds a boolean column from optional values.
    pub fn from_bools<I: IntoIterator<Item = Option<bool>>>(values: I) -> Self {
        let collected: Vec<Option<bool>> = values.into_iter().collect();
        let n = collected.len();
        let mut data = Bitmap::new_clear(n);
        let mut validity = Bitmap::new_clear(n);
        for (i, v) in collected.into_iter().enumerate() {
            if let Some(b) = v {
                validity.set(i);
                if b {
                    data.set(i);
                }
            }
        }
        Column::Bool { data, validity }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Float64 { data, .. } => data.len(),
            Column::Int64 { data, .. } => data.len(),
            Column::Categorical { codes, .. } => codes.len(),
            Column::Bool { validity, .. } => validity.len(),
        }
    }

    /// True when the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Float64 { .. } => DataType::Float64,
            Column::Int64 { .. } => DataType::Int64,
            Column::Categorical { .. } => DataType::Categorical,
            Column::Bool { .. } => DataType::Bool,
        }
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        match self {
            Column::Float64 { validity, .. }
            | Column::Int64 { validity, .. }
            | Column::Categorical { validity, .. }
            | Column::Bool { validity, .. } => validity,
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity().count_zeros()
    }

    /// Cell value at `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Float64 { data, validity } => {
                if validity.get(row) {
                    Value::Float(data[row])
                } else {
                    Value::Null
                }
            }
            Column::Int64 { data, validity } => {
                if validity.get(row) {
                    Value::Int(data[row])
                } else {
                    Value::Null
                }
            }
            Column::Categorical {
                codes,
                dict,
                validity,
            } => {
                if validity.get(row) {
                    Value::Str(dict[codes[row] as usize].clone())
                } else {
                    Value::Null
                }
            }
            Column::Bool { data, validity } => {
                if validity.get(row) {
                    Value::Bool(data.get(row))
                } else {
                    Value::Null
                }
            }
        }
    }

    /// Numeric view of the cell at `row`: floats as-is, ints widened,
    /// bools as 0/1; NULL and categorical yield `None`.
    #[inline]
    pub fn numeric_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::Float64 { data, validity } => validity.get(row).then(|| data[row]),
            Column::Int64 { data, validity } => validity.get(row).then(|| data[row] as f64),
            Column::Bool { data, validity } => {
                validity
                    .get(row)
                    .then(|| if data.get(row) { 1.0 } else { 0.0 })
            }
            Column::Categorical { .. } => None,
        }
    }

    /// Dictionary code at `row` for categorical columns (`None` when NULL or
    /// not categorical).
    #[inline]
    pub fn code_at(&self, row: usize) -> Option<u32> {
        match self {
            Column::Categorical {
                codes, validity, ..
            } => validity.get(row).then(|| codes[row]),
            _ => None,
        }
    }

    /// Borrowed float payload and validity, when this is a float column.
    pub fn f64_slice(&self) -> Option<(&[f64], &Bitmap)> {
        match self {
            Column::Float64 { data, validity } => Some((data, validity)),
            _ => None,
        }
    }

    /// Borrowed integer payload and validity, when this is an int column.
    pub fn i64_slice(&self) -> Option<(&[i64], &Bitmap)> {
        match self {
            Column::Int64 { data, validity } => Some((data, validity)),
            _ => None,
        }
    }

    /// Borrowed codes, dictionary and validity, when categorical.
    pub fn categorical_parts(&self) -> Option<CategoricalParts<'_>> {
        match self {
            Column::Categorical {
                codes,
                dict,
                validity,
            } => Some((codes, dict, validity)),
            _ => None,
        }
    }

    /// Dictionary of a categorical column (empty for other types).
    pub fn dictionary(&self) -> &[String] {
        match self {
            Column::Categorical { dict, .. } => dict,
            _ => &[],
        }
    }

    /// Materializes all rows as numeric values (see [`Column::numeric_at`]).
    pub fn to_f64_vec(&self) -> Vec<Option<f64>> {
        (0..self.len()).map(|i| self.numeric_at(i)).collect()
    }

    /// Gathers the rows at `indices` into a new column.
    ///
    /// Dictionary vectors are shared (`Arc`), so gathering a categorical
    /// column never copies label strings — this is the "low-level data
    /// sharing" that makes zooming cheap.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn take(&self, indices: &[u32]) -> Column {
        match self {
            Column::Float64 { data, validity } => {
                let mut out = Vec::with_capacity(indices.len());
                let mut val = Bitmap::new_clear(indices.len());
                for (j, &i) in indices.iter().enumerate() {
                    let i = i as usize;
                    out.push(data[i]);
                    if validity.get(i) {
                        val.set(j);
                    }
                }
                Column::Float64 {
                    data: out,
                    validity: val,
                }
            }
            Column::Int64 { data, validity } => {
                let mut out = Vec::with_capacity(indices.len());
                let mut val = Bitmap::new_clear(indices.len());
                for (j, &i) in indices.iter().enumerate() {
                    let i = i as usize;
                    out.push(data[i]);
                    if validity.get(i) {
                        val.set(j);
                    }
                }
                Column::Int64 {
                    data: out,
                    validity: val,
                }
            }
            Column::Categorical {
                codes,
                dict,
                validity,
            } => {
                let mut out = Vec::with_capacity(indices.len());
                let mut val = Bitmap::new_clear(indices.len());
                for (j, &i) in indices.iter().enumerate() {
                    let i = i as usize;
                    out.push(codes[i]);
                    if validity.get(i) {
                        val.set(j);
                    }
                }
                Column::Categorical {
                    codes: out,
                    dict: Arc::clone(dict),
                    validity: val,
                }
            }
            Column::Bool { data, validity } => {
                let mut out = Bitmap::new_clear(indices.len());
                let mut val = Bitmap::new_clear(indices.len());
                for (j, &i) in indices.iter().enumerate() {
                    let i = i as usize;
                    if data.get(i) {
                        out.set(j);
                    }
                    if validity.get(i) {
                        val.set(j);
                    }
                }
                Column::Bool {
                    data: out,
                    validity: val,
                }
            }
        }
    }

    /// Number of distinct non-NULL values.
    ///
    /// Exact; floats are compared by bit pattern so `-0.0` and `0.0` count
    /// as two values and NaNs collapse to one.
    pub fn distinct_count(&self) -> usize {
        match self {
            Column::Float64 { data, validity } => {
                let mut set = std::collections::HashSet::new();
                for (i, v) in data.iter().enumerate() {
                    if validity.get(i) {
                        set.insert(v.to_bits());
                    }
                }
                set.len()
            }
            Column::Int64 { data, validity } => {
                let mut set = std::collections::HashSet::new();
                for (i, v) in data.iter().enumerate() {
                    if validity.get(i) {
                        set.insert(*v);
                    }
                }
                set.len()
            }
            Column::Categorical {
                codes, validity, ..
            } => {
                let mut set = std::collections::HashSet::new();
                for (i, c) in codes.iter().enumerate() {
                    if validity.get(i) {
                        set.insert(*c);
                    }
                }
                set.len()
            }
            Column::Bool { data, validity } => {
                let mut seen_true = false;
                let mut seen_false = false;
                for i in 0..validity.len() {
                    if validity.get(i) {
                        if data.get(i) {
                            seen_true = true;
                        } else {
                            seen_false = true;
                        }
                    }
                }
                usize::from(seen_true) + usize::from(seen_false)
            }
        }
    }
}

/// Semantic equality: same type, same validity, equal values at valid rows.
///
/// NULL slots are ignored (their payload is arbitrary — NaN for floats), and
/// categorical columns compare by *label*, not by dictionary layout, so two
/// columns that intern the same values in different orders are equal.
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        if self.data_type() != other.data_type()
            || self.len() != other.len()
            || self.validity() != other.validity()
        {
            return false;
        }
        match (self, other) {
            (Column::Float64 { data: a, validity }, Column::Float64 { data: b, .. }) => {
                (0..a.len()).all(|i| !validity.get(i) || a[i].to_bits() == b[i].to_bits())
            }
            (Column::Int64 { data: a, validity }, Column::Int64 { data: b, .. }) => {
                (0..a.len()).all(|i| !validity.get(i) || a[i] == b[i])
            }
            (
                Column::Categorical {
                    codes: ca,
                    dict: da,
                    validity,
                },
                Column::Categorical {
                    codes: cb,
                    dict: db,
                    ..
                },
            ) => {
                (0..ca.len()).all(|i| !validity.get(i) || da[ca[i] as usize] == db[cb[i] as usize])
            }
            (Column::Bool { data: a, validity }, Column::Bool { data: b, .. }) => {
                (0..validity.len()).all(|i| !validity.get(i) || a.get(i) == b.get(i))
            }
            _ => unreachable!("data_type equality checked above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_column_roundtrip() {
        let col = Column::from_f64s([Some(1.0), None, Some(3.5)]);
        assert_eq!(col.len(), 3);
        assert_eq!(col.data_type(), DataType::Float64);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.get(0), Value::Float(1.0));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.get(2), Value::Float(3.5));
    }

    #[test]
    fn int_column_roundtrip() {
        let col = Column::from_i64s([Some(5), None]);
        assert_eq!(col.get(0), Value::Int(5));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.numeric_at(0), Some(5.0));
    }

    #[test]
    fn categorical_interns_in_first_appearance_order() {
        let col = Column::from_strs([Some("b"), Some("a"), Some("b"), None]);
        let (codes, dict, validity) = col.categorical_parts().unwrap();
        assert_eq!(dict.as_slice(), &["b".to_string(), "a".to_string()]);
        assert_eq!(codes, &[0, 1, 0, 0]);
        assert!(!validity.get(3));
        assert_eq!(col.get(0), Value::Str("b".into()));
        assert_eq!(col.get(3), Value::Null);
        assert_eq!(col.distinct_count(), 2);
    }

    #[test]
    fn bool_column() {
        let col = Column::from_bools([Some(true), Some(false), None]);
        assert_eq!(col.get(0), Value::Bool(true));
        assert_eq!(col.get(1), Value::Bool(false));
        assert_eq!(col.get(2), Value::Null);
        assert_eq!(col.numeric_at(0), Some(1.0));
        assert_eq!(col.numeric_at(1), Some(0.0));
        assert_eq!(col.distinct_count(), 2);
    }

    #[test]
    fn take_gathers_and_shares_dict() {
        let col = Column::from_strs([Some("x"), Some("y"), None, Some("x")]);
        let taken = col.take(&[3, 0, 2]);
        assert_eq!(taken.len(), 3);
        assert_eq!(taken.get(0), Value::Str("x".into()));
        assert_eq!(taken.get(1), Value::Str("x".into()));
        assert_eq!(taken.get(2), Value::Null);
        // Dictionary is shared, not copied.
        let (_, orig_dict, _) = col.categorical_parts().unwrap();
        let (_, new_dict, _) = taken.categorical_parts().unwrap();
        assert!(Arc::ptr_eq(orig_dict, new_dict));
    }

    #[test]
    fn take_floats_preserves_nulls() {
        let col = Column::from_f64s([Some(1.0), None, Some(3.0)]);
        let taken = col.take(&[1, 2]);
        assert_eq!(taken.get(0), Value::Null);
        assert_eq!(taken.get(1), Value::Float(3.0));
    }

    #[test]
    fn distinct_count_floats() {
        let col = Column::from_f64s([Some(1.0), Some(1.0), Some(2.0), None]);
        assert_eq!(col.distinct_count(), 2);
    }

    #[test]
    fn dense_constructors() {
        let f = Column::dense_f64(vec![1.0, 2.0]);
        assert_eq!(f.null_count(), 0);
        let i = Column::dense_i64(vec![1, 2, 3]);
        assert_eq!(i.null_count(), 0);
        assert_eq!(i.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_codes_validates() {
        let dict = Arc::new(vec!["a".to_string()]);
        let validity = Bitmap::new_set(1);
        let _ = Column::from_codes(vec![5], dict, validity);
    }

    #[test]
    fn to_f64_vec_masks_categoricals() {
        let col = Column::from_strs([Some("a")]);
        assert_eq!(col.to_f64_vec(), vec![None]);
    }
}
