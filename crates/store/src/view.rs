//! Zero-copy table views: a shared table plus a row selection.
//!
//! Blaeu's core interaction is recursive navigation — every zoom narrows
//! the current selection and re-clusters it. Materializing a sub-table per
//! zoom (`Table::take`) copies every column payload; a [`TableView`]
//! replaces that with an `Arc<Table>` plus a row-index vector (kept in
//! caller order, duplicates allowed — like `take`), so narrowing a
//! selection is pure index arithmetic and the column payloads are shared
//! by every view, every zoom level, and every session.
//!
//! The analysis pipeline consumes views, never owned tables:
//! [`ColumnView`] provides the typed per-row accessors (`numeric_at`,
//! `code_at`, dictionary/validity views) the preprocessing, statistics and
//! CART layers read through, via the [`ColumnRead`] trait they share with
//! owned [`Column`]s. Gathering survives only at the edges of the system
//! ([`TableView::gather`] for the sampled example rows shown to a user).

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnRead};
use crate::error::{Result, StoreError};
use crate::predicate::Predicate;
use crate::schema::{ColumnRole, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};

/// A read-only view over a shared [`Table`]: the table plus an optional
/// row selection (`None` = all rows, in order).
///
/// Views are cheap to clone (two `Arc` bumps) and cheap to compose:
/// [`TableView::select`] re-maps indices without touching column data.
/// Row indices are view-relative everywhere; the view translates them
/// to physical rows of the underlying table.
#[derive(Debug, Clone)]
pub struct TableView {
    table: Arc<Table>,
    rows: Option<Arc<Vec<u32>>>,
}

impl TableView {
    /// Identity view over a shared table (all rows).
    pub fn new(table: Arc<Table>) -> Self {
        TableView { table, rows: None }
    }

    /// View over an explicit base-row selection.
    ///
    /// # Errors
    /// Returns [`StoreError::RowOutOfBounds`] when an index exceeds the
    /// table's row count.
    pub fn with_rows(table: Arc<Table>, rows: Vec<u32>) -> Result<Self> {
        if let Some(&bad) = rows.iter().find(|&&i| (i as usize) >= table.nrows()) {
            return Err(StoreError::RowOutOfBounds {
                index: bad as usize,
                nrows: table.nrows(),
            });
        }
        Ok(TableView {
            table,
            rows: Some(Arc::new(rows)),
        })
    }

    /// The underlying shared table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Table name.
    pub fn name(&self) -> &str {
        self.table.name()
    }

    /// The schema (shared with the underlying table — views never project).
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// Number of rows in the view.
    pub fn nrows(&self) -> usize {
        match &self.rows {
            Some(rows) => rows.len(),
            None => self.table.nrows(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.table.ncols()
    }

    /// The shared base-row selection handle (`None` = identity view).
    ///
    /// Two views with `Arc::ptr_eq` selections provably cover the same
    /// rows without comparing contents — the cheap path for cache keys
    /// fingerprinting a view (see `blaeu-core`'s analysis memoization).
    pub fn rows_shared(&self) -> Option<Arc<Vec<u32>>> {
        self.rows.clone()
    }

    /// Physical row of the underlying table behind view row `row`.
    ///
    /// # Panics
    /// Panics if `row >= nrows()`.
    #[inline]
    fn base_row(&self, row: usize) -> u32 {
        match &self.rows {
            Some(rows) => rows[row],
            None => row as u32,
        }
    }

    /// Column view at position `idx`.
    pub fn col(&self, idx: usize) -> ColumnView<'_> {
        ColumnView {
            column: self.table.column(idx),
            rows: self.rows.as_ref().map(|r| r.as_slice()),
        }
    }

    /// Column view named `name`.
    ///
    /// # Errors
    /// Returns [`StoreError::ColumnNotFound`] when absent.
    pub fn col_by_name(&self, name: &str) -> Result<ColumnView<'_>> {
        Ok(ColumnView {
            column: self.table.column_by_name(name)?,
            rows: self.rows.as_ref().map(|r| r.as_slice()),
        })
    }

    /// Cell at (`row`, column `name`).
    ///
    /// # Errors
    /// Returns an error for unknown columns or out-of-bounds rows.
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        if row >= self.nrows() {
            return Err(StoreError::RowOutOfBounds {
                index: row,
                nrows: self.nrows(),
            });
        }
        self.table.value(self.base_row(row) as usize, name)
    }

    /// Materializes view row `row` as values in schema order.
    ///
    /// # Errors
    /// Returns [`StoreError::RowOutOfBounds`] for bad indices.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.nrows() {
            return Err(StoreError::RowOutOfBounds {
                index: row,
                nrows: self.nrows(),
            });
        }
        self.table.row(self.base_row(row) as usize)
    }

    /// Narrows the view to the given **view-relative** rows (in the given
    /// order) without touching column data: the selection is re-mapped
    /// through the existing one.
    ///
    /// # Errors
    /// Returns [`StoreError::RowOutOfBounds`] when an index exceeds
    /// `nrows()`.
    pub fn select(&self, rows: &[u32]) -> Result<TableView> {
        let n = self.nrows();
        if let Some(&bad) = rows.iter().find(|&&i| (i as usize) >= n) {
            return Err(StoreError::RowOutOfBounds {
                index: bad as usize,
                nrows: n,
            });
        }
        let mapped: Vec<u32> = rows.iter().map(|&i| self.base_row(i as usize)).collect();
        Ok(TableView {
            table: Arc::clone(&self.table),
            rows: Some(Arc::new(mapped)),
        })
    }

    /// Narrows the view to the rows whose bit is set in `mask` (one bit
    /// per view row, ascending).
    ///
    /// # Errors
    /// Returns [`StoreError::LengthMismatch`] when the mask length differs
    /// from `nrows()`.
    pub fn retain(&self, mask: &Bitmap) -> Result<TableView> {
        if mask.len() != self.nrows() {
            return Err(StoreError::LengthMismatch {
                expected: self.nrows(),
                found: mask.len(),
                column: "<selection mask>".to_owned(),
            });
        }
        let mapped: Vec<u32> = mask.iter_ones().map(|i| self.base_row(i)).collect();
        Ok(TableView {
            table: Arc::clone(&self.table),
            rows: Some(Arc::new(mapped)),
        })
    }

    /// Narrows the view to the rows satisfying `predicate` — the
    /// view-aware predicate path: a selection is emitted and composed,
    /// no sub-table is materialized.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    pub fn filter(&self, predicate: &Predicate) -> Result<TableView> {
        self.retain(&predicate.eval_view(self)?)
    }

    /// Gathers the given **view-relative** rows into an owned [`Table`].
    ///
    /// This is the one deliberate materialization point left on the
    /// navigation path: the sampled example tuples shown to the user (and
    /// exports leaving the tool). Analysis code never calls it.
    ///
    /// # Errors
    /// Returns [`StoreError::RowOutOfBounds`] when an index exceeds
    /// `nrows()`.
    pub fn gather(&self, rows: &[u32]) -> Result<Table> {
        let n = self.nrows();
        if let Some(&bad) = rows.iter().find(|&&i| (i as usize) >= n) {
            return Err(StoreError::RowOutOfBounds {
                index: bad as usize,
                nrows: n,
            });
        }
        let base: Vec<u32> = rows.iter().map(|&i| self.base_row(i as usize)).collect();
        self.table.take(&base)
    }

    /// Names of columns whose role is [`ColumnRole::Attribute`].
    pub fn attribute_columns(&self) -> Vec<&str> {
        self.table.attribute_columns()
    }

    /// Names of numeric attribute columns.
    pub fn numeric_columns(&self) -> Vec<&str> {
        self.table.numeric_columns()
    }

    /// Names of columns whose role is [`ColumnRole::Label`].
    pub fn label_columns(&self) -> Vec<&str> {
        self.schema()
            .fields()
            .iter()
            .filter(|f| f.role == ColumnRole::Label)
            .map(|f| f.name.as_str())
            .collect()
    }
}

impl From<Table> for TableView {
    fn from(table: Table) -> Self {
        TableView::new(Arc::new(table))
    }
}

impl From<Arc<Table>> for TableView {
    fn from(table: Arc<Table>) -> Self {
        TableView::new(table)
    }
}

/// A zero-copy view of one column under a row selection.
///
/// All row indices are view-relative; accessors map through the selection
/// and read the shared column payload in place.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    column: &'a Column,
    rows: Option<&'a [u32]>,
}

impl<'a> ColumnView<'a> {
    /// View over every row of a column, in order.
    pub fn whole(column: &'a Column) -> Self {
        ColumnView { column, rows: None }
    }

    /// View over an explicit row selection (base-row indices).
    ///
    /// # Panics
    /// Accessors panic later if an index is out of bounds; callers are
    /// expected to pass validated selections ([`TableView`] does).
    pub fn with_rows(column: &'a Column, rows: &'a [u32]) -> Self {
        ColumnView {
            column,
            rows: Some(rows),
        }
    }

    /// The underlying column.
    pub fn column(&self) -> &'a Column {
        self.column
    }

    /// Physical row behind view row `row`.
    #[inline]
    fn base_row(&self, row: usize) -> usize {
        match self.rows {
            Some(rows) => rows[row] as usize,
            None => row,
        }
    }

    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        match self.rows {
            Some(rows) => rows.len(),
            None => self.column.len(),
        }
    }

    /// True when the view covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type of the column.
    pub fn data_type(&self) -> DataType {
        self.column.data_type()
    }

    /// Cell value at view row `row`.
    pub fn get(&self, row: usize) -> Value {
        self.column.get(self.base_row(row))
    }

    /// Numeric view of the cell at view row `row` (see
    /// [`Column::numeric_at`]).
    #[inline]
    pub fn numeric_at(&self, row: usize) -> Option<f64> {
        self.column.numeric_at(self.base_row(row))
    }

    /// Dictionary code at view row `row` for categorical columns.
    #[inline]
    pub fn code_at(&self, row: usize) -> Option<u32> {
        self.column.code_at(self.base_row(row))
    }

    /// True when the cell at view row `row` is non-NULL.
    #[inline]
    pub fn is_valid(&self, row: usize) -> bool {
        self.column.validity().get(self.base_row(row))
    }

    /// Dictionary of a categorical column (empty for other types). The
    /// dictionary is shared by every view of the column.
    pub fn dictionary(&self) -> &'a [String] {
        self.column.dictionary()
    }

    /// The underlying validity bitmap, available only when this view
    /// covers every row in order (`None` under a selection) — whole-table
    /// consumers use it to keep word-wise bitmap operations.
    pub fn whole_validity(&self) -> Option<&'a Bitmap> {
        match self.rows {
            None => Some(self.column.validity()),
            Some(_) => None,
        }
    }

    /// The row selection this view maps through (`None` = identity).
    pub fn rows(&self) -> Option<&'a [u32]> {
        self.rows
    }

    /// Number of NULL rows inside the view.
    ///
    /// The mapped path counts set validity bits word-at-a-time through
    /// [`Bitmap::count_ones_at`] instead of probing `get` per row.
    pub fn null_count(&self) -> usize {
        match self.rows {
            None => self.column.null_count(),
            Some(rows) => rows.len() - self.column.validity().count_ones_at(rows),
        }
    }

    /// Number of distinct non-NULL values inside the view (same
    /// semantics as [`Column::distinct_count`]: floats by bit pattern,
    /// categoricals by code).
    ///
    /// The mapped path reads validity through a word-caching probe, so
    /// runs of selected rows in the same bitmap word pay one word load
    /// instead of a bounds-checked `get` each.
    pub fn distinct_count(&self) -> usize {
        match self.rows {
            None => self.column.distinct_count(),
            Some(rows) => {
                let mut valid = WordProbe::new(self.column.validity());
                match self.column {
                    Column::Float64 { data, .. } => {
                        let mut set = std::collections::HashSet::new();
                        for &i in rows {
                            let i = i as usize;
                            if valid.get(i) {
                                set.insert(data[i].to_bits());
                            }
                        }
                        set.len()
                    }
                    Column::Int64 { data, .. } => {
                        let mut set = std::collections::HashSet::new();
                        for &i in rows {
                            let i = i as usize;
                            if valid.get(i) {
                                set.insert(data[i]);
                            }
                        }
                        set.len()
                    }
                    Column::Categorical { codes, .. } => {
                        let mut set = std::collections::HashSet::new();
                        for &i in rows {
                            let i = i as usize;
                            if valid.get(i) {
                                set.insert(codes[i]);
                            }
                        }
                        set.len()
                    }
                    Column::Bool { data, .. } => {
                        let mut values = WordProbe::new(data);
                        let mut seen_true = false;
                        let mut seen_false = false;
                        for &i in rows {
                            let i = i as usize;
                            if valid.get(i) {
                                if values.get(i) {
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
    }
}

/// Word-caching bitmap reader for mapped selections: consecutive probes
/// that land in the same backing word reuse the loaded word instead of
/// paying a bounds-checked [`Bitmap::get`] each time. Selection vectors
/// are usually sorted runs, so the cache hits almost always.
struct WordProbe<'a> {
    words: &'a [u64],
    len: usize,
    cached_idx: usize,
    cached_word: u64,
}

impl<'a> WordProbe<'a> {
    fn new(bitmap: &'a Bitmap) -> Self {
        WordProbe {
            words: bitmap.words(),
            len: bitmap.len(),
            cached_idx: usize::MAX,
            cached_word: 0,
        }
    }

    #[inline]
    fn get(&mut self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of bounds ({})",
            self.len
        );
        let w = index / 64;
        if w != self.cached_idx {
            self.cached_idx = w;
            self.cached_word = self.words[w];
        }
        (self.cached_word >> (index % 64)) & 1 == 1
    }
}

impl ColumnRead for ColumnView<'_> {
    fn len(&self) -> usize {
        ColumnView::len(self)
    }

    fn data_type(&self) -> DataType {
        ColumnView::data_type(self)
    }

    fn get(&self, row: usize) -> Value {
        ColumnView::get(self, row)
    }

    fn numeric_at(&self, row: usize) -> Option<f64> {
        ColumnView::numeric_at(self, row)
    }

    fn code_at(&self, row: usize) -> Option<u32> {
        ColumnView::code_at(self, row)
    }

    fn is_valid(&self, row: usize) -> bool {
        ColumnView::is_valid(self, row)
    }

    fn dictionary(&self) -> &[String] {
        ColumnView::dictionary(self)
    }

    fn null_count(&self) -> usize {
        ColumnView::null_count(self)
    }

    fn distinct_count(&self) -> usize {
        ColumnView::distinct_count(self)
    }

    fn code_parts(&self) -> Option<(&[u32], &Bitmap)> {
        match (self.rows, self.column) {
            (
                None,
                Column::Categorical {
                    codes, validity, ..
                },
            ) => Some((codes, validity)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn base() -> Arc<Table> {
        Arc::new(
            TableBuilder::new("t")
                .column(
                    "x",
                    Column::from_f64s([Some(1.0), Some(2.0), None, Some(4.0), Some(5.0)]),
                )
                .unwrap()
                .column(
                    "cat",
                    Column::from_strs([Some("a"), Some("b"), Some("a"), None, Some("c")]),
                )
                .unwrap()
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn identity_view_mirrors_table() {
        let t = base();
        let v = TableView::new(Arc::clone(&t));
        assert!(v.rows_shared().is_none());
        assert_eq!(v.nrows(), 5);
        assert_eq!(v.ncols(), 2);
        assert_eq!(v.value(1, "x").unwrap(), Value::Float(2.0));
        assert_eq!(v.row(2).unwrap(), t.row(2).unwrap());
        let c = v.col_by_name("x").unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.numeric_at(3), Some(4.0));
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.distinct_count(), 4);
    }

    #[test]
    fn with_rows_validates_bounds() {
        let t = base();
        assert!(TableView::with_rows(Arc::clone(&t), vec![0, 9]).is_err());
        let v = TableView::with_rows(t, vec![4, 0, 2]).unwrap();
        assert_eq!(v.nrows(), 3);
        assert_eq!(v.base_row(0), 4);
        assert_eq!(v.value(0, "x").unwrap(), Value::Float(5.0));
        assert_eq!(v.value(2, "x").unwrap(), Value::Null);
    }

    #[test]
    fn select_composes_without_copying_payloads() {
        let t = base();
        let v = TableView::new(Arc::clone(&t));
        let first = v.select(&[1, 2, 4]).unwrap(); // base rows 1, 2, 4
        let second = first.select(&[2, 0]).unwrap(); // base rows 4, 1
        assert_eq!(second.nrows(), 2);
        assert_eq!(*second.rows_shared().unwrap(), [4, 1]);
        assert_eq!(second.value(0, "cat").unwrap(), Value::Str("c".into()));
        assert_eq!(second.value(1, "cat").unwrap(), Value::Str("b".into()));
        // Out-of-bounds view rows error.
        assert!(second.select(&[2]).is_err());
        // The table is still the same shared allocation.
        assert!(Arc::ptr_eq(second.table(), &t));
    }

    #[test]
    fn view_matches_take_on_every_accessor() {
        let t = base();
        let rows = [3u32, 0, 2];
        let taken = t.take(&rows).unwrap();
        let view = TableView::with_rows(Arc::clone(&t), rows.to_vec()).unwrap();
        assert_eq!(view.nrows(), taken.nrows());
        for (name, _) in [("x", 0), ("cat", 1)] {
            let tc = taken.column_by_name(name).unwrap();
            let vc = view.col_by_name(name).unwrap();
            assert_eq!(vc.null_count(), tc.null_count(), "{name}");
            assert_eq!(vc.distinct_count(), tc.distinct_count(), "{name}");
            for r in 0..view.nrows() {
                assert_eq!(vc.get(r), tc.get(r), "{name}[{r}]");
                assert_eq!(vc.numeric_at(r), tc.numeric_at(r), "{name}[{r}]");
                assert_eq!(vc.code_at(r), tc.code_at(r), "{name}[{r}]");
            }
        }
    }

    #[test]
    fn retain_and_filter_emit_selections() {
        let t = base();
        let v = TableView::new(t);
        let mask = Bitmap::from_bools(&[true, false, false, true, true]);
        let kept = v.retain(&mask).unwrap();
        assert_eq!(*kept.rows_shared().unwrap(), [0, 3, 4]);
        // Length mismatch is rejected.
        assert!(kept.retain(&mask).is_err());

        let filtered = v.filter(&Predicate::ge("x", 2.0)).unwrap();
        assert_eq!(*filtered.rows_shared().unwrap(), [1, 3, 4]);
        // Filtering composes with an existing selection.
        let narrow = filtered.filter(&Predicate::lt("x", 5.0)).unwrap();
        assert_eq!(*narrow.rows_shared().unwrap(), [1, 3]);
    }

    #[test]
    fn gather_materializes_examples_only() {
        let t = base();
        let v = TableView::with_rows(Arc::clone(&t), vec![4, 2, 0]).unwrap();
        let examples = v.gather(&[0, 2]).unwrap();
        assert_eq!(examples.nrows(), 2);
        assert_eq!(examples.value(0, "x").unwrap(), Value::Float(5.0));
        assert_eq!(examples.value(1, "x").unwrap(), Value::Float(1.0));
        assert!(v.gather(&[3]).is_err());
        let all = v.gather(&[0, 1, 2]).unwrap();
        assert_eq!(all, t.take(&[4, 2, 0]).unwrap());
    }

    #[test]
    fn typed_accessors() {
        let t = base();
        let v = TableView::with_rows(t, vec![1, 2]).unwrap();
        let x = v.col_by_name("x").unwrap();
        assert_eq!(x.numeric_at(0), Some(2.0));
        assert_eq!(x.numeric_at(1), None, "NULL cell");
        let cat = v.col_by_name("cat").unwrap();
        assert_eq!(cat.code_at(0), Some(1));
        assert_eq!(cat.dictionary(), &["a", "b", "c"]);
        assert!(cat.is_valid(1));
        assert!(!x.is_valid(1));
    }

    #[test]
    fn mapped_counts_match_naive_loops() {
        // Out-of-order selection with duplicates across word boundaries:
        // the word-cached count paths must agree with the per-row naive
        // loop exactly.
        let n = 150usize;
        let t = Arc::new(
            TableBuilder::new("wide")
                .column(
                    "f",
                    Column::from_f64s((0..n).map(|i| (i % 3 != 0).then_some((i % 7) as f64))),
                )
                .unwrap()
                .column(
                    "i",
                    Column::from_i64s((0..n).map(|i| (i % 4 != 1).then_some((i % 5) as i64))),
                )
                .unwrap()
                .column(
                    "c",
                    Column::from_strs(
                        (0..n)
                            .map(|i| (i % 5 != 2).then(|| format!("v{}", i % 6)))
                            .collect::<Vec<_>>()
                            .iter()
                            .map(Option::as_deref),
                    ),
                )
                .unwrap()
                .column(
                    "b",
                    Column::from_bools((0..n).map(|i| (i % 6 != 3).then_some(i % 2 == 0))),
                )
                .unwrap()
                .build()
                .unwrap(),
        );
        let rows: Vec<u32> = (0..n as u32)
            .rev()
            .chain((0..n as u32).step_by(3))
            .collect();
        let v = TableView::with_rows(Arc::clone(&t), rows.clone()).unwrap();
        for name in ["f", "i", "c", "b"] {
            let col = v.col_by_name(name).unwrap();
            let naive_nulls = (0..col.len()).filter(|&r| !col.is_valid(r)).count();
            assert_eq!(col.null_count(), naive_nulls, "{name} null_count");
            let taken = t.take(&rows).unwrap();
            let owned = taken.column_by_name(name).unwrap();
            assert_eq!(
                col.distinct_count(),
                owned.distinct_count(),
                "{name} distinct"
            );
        }
    }

    #[test]
    fn code_parts_only_on_identity_categorical_views() {
        let t = base();
        let identity = TableView::new(Arc::clone(&t));
        let cat = identity.col_by_name("cat").unwrap();
        let (codes, validity) = ColumnRead::code_parts(&cat).expect("identity categorical");
        assert_eq!(codes.len(), 5);
        assert_eq!(validity.count_zeros(), 1);
        assert!(ColumnRead::code_parts(&identity.col_by_name("x").unwrap()).is_none());
        let mapped = TableView::with_rows(t, vec![0, 1]).unwrap();
        assert!(ColumnRead::code_parts(&mapped.col_by_name("cat").unwrap()).is_none());
    }

    #[test]
    fn role_helpers_pass_through() {
        let t = base();
        let v = TableView::new(t);
        assert_eq!(v.attribute_columns(), vec!["x", "cat"]);
        assert_eq!(v.numeric_columns(), vec!["x"]);
        assert!(v.label_columns().is_empty());
        assert_eq!(v.name(), "t");
        assert_eq!(v.schema().len(), 2);
    }
}
