//! Select-Project queries.
//!
//! Blaeu users never write SQL; every navigational action implicitly refines
//! a Select-Project query. [`SelectProject`] is that implicit query made
//! explicit: it can be executed against a [`Table`] and rendered as SQL so
//! users can carry their exploration result into a real DBMS.

use std::fmt;

use crate::error::Result;
use crate::predicate::Predicate;
use crate::table::Table;
use crate::view::TableView;

/// A Select-Project query: a conjunction of predicates plus a projection.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectProject {
    /// Projected column names; empty means "all columns".
    pub projection: Vec<String>,
    /// Selection predicate.
    pub predicate: Predicate,
}

impl SelectProject {
    /// The identity query: all rows, all columns.
    pub fn all() -> Self {
        SelectProject {
            projection: Vec::new(),
            predicate: Predicate::True,
        }
    }

    /// Query with a predicate and full projection.
    pub fn filtered(predicate: Predicate) -> Self {
        SelectProject {
            projection: Vec::new(),
            predicate,
        }
    }

    /// Narrows the projection to `columns`.
    pub fn project<S: Into<String>>(mut self, columns: impl IntoIterator<Item = S>) -> Self {
        self.projection = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Adds a conjunct to the predicate.
    pub fn and_where(mut self, pred: Predicate) -> Self {
        self.predicate = Predicate::and([self.predicate, pred]);
        self
    }

    /// Executes the query, materializing a new table.
    ///
    /// # Errors
    /// Propagates unknown-column and type errors from predicate evaluation
    /// and projection.
    pub fn execute(&self, table: &Table) -> Result<Table> {
        let rows = self.predicate.select(table)?;
        let selected = table.take(&rows)?;
        if self.projection.is_empty() {
            Ok(selected)
        } else {
            let names: Vec<&str> = self.projection.iter().map(String::as_str).collect();
            selected.project(&names)
        }
    }

    /// Applies the selection to a view, emitting a narrowed view instead of
    /// a materialized table. The projection does not restrict the result —
    /// views share all columns of their table — but it is preserved in the
    /// query itself for SQL rendering.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    pub fn select_view(&self, view: &TableView) -> Result<TableView> {
        view.filter(&self.predicate)
    }

    /// Renders the query as a SQL statement against `table_name`.
    pub fn to_sql(&self, table_name: &str) -> String {
        let cols = if self.projection.is_empty() {
            "*".to_string()
        } else {
            self.projection
                .iter()
                .map(|c| format!("\"{c}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        match &self.predicate {
            Predicate::True => format!("SELECT {cols} FROM \"{table_name}\";"),
            p => format!("SELECT {cols} FROM \"{table_name}\" WHERE {p};"),
        }
    }
}

impl fmt::Display for SelectProject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql("T"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn table() -> Table {
        TableBuilder::new("countries")
            .column(
                "name",
                Column::from_strs([Some("NL"), Some("CH"), Some("US"), Some("FR")]),
            )
            .unwrap()
            .column(
                "income",
                Column::from_f64s([Some(25.0), Some(35.0), Some(30.0), Some(22.0)]),
            )
            .unwrap()
            .column(
                "hours",
                Column::from_f64s([Some(8.0), Some(9.0), Some(25.0), Some(12.0)]),
            )
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn all_is_identity() {
        let t = table();
        let out = SelectProject::all().execute(&t).unwrap();
        assert_eq!(out, t);
    }

    #[test]
    fn filter_and_project() {
        let t = table();
        let q = SelectProject::filtered(Predicate::lt("hours", 20.0)).project(["name"]);
        let out = q.execute(&t).unwrap();
        assert_eq!(out.ncols(), 1);
        assert_eq!(out.nrows(), 3);
        assert_eq!(out.value(0, "name").unwrap(), Value::Str("NL".into()));
    }

    #[test]
    fn select_view_narrows_without_materializing() {
        let t = std::sync::Arc::new(table());
        let v = TableView::new(std::sync::Arc::clone(&t));
        let q = SelectProject::filtered(Predicate::lt("hours", 20.0)).project(["name"]);
        let narrowed = q.select_view(&v).unwrap();
        assert_eq!(narrowed.nrows(), 3);
        assert!(std::sync::Arc::ptr_eq(narrowed.table(), &t), "shared table");
        // Same rows as the materializing path.
        assert_eq!(
            *narrowed.rows_shared().unwrap(),
            q.predicate.select(&t).unwrap()
        );
    }

    #[test]
    fn and_where_accumulates() {
        let t = table();
        let q = SelectProject::all()
            .and_where(Predicate::lt("hours", 20.0))
            .and_where(Predicate::ge("income", 25.0));
        let rows = q.predicate.select(&t).unwrap();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn sql_rendering() {
        let q = SelectProject::all();
        assert_eq!(q.to_sql("countries"), "SELECT * FROM \"countries\";");

        let q = SelectProject::filtered(Predicate::ge("income", 22.0)).project(["name", "income"]);
        assert_eq!(
            q.to_sql("countries"),
            "SELECT \"name\", \"income\" FROM \"countries\" WHERE \"income\" >= 22;"
        );
    }

    #[test]
    fn display_uses_placeholder_table() {
        let q = SelectProject::all();
        assert_eq!(q.to_string(), "SELECT * FROM \"T\";");
    }

    #[test]
    fn execute_propagates_errors() {
        let t = table();
        let q = SelectProject::all().project(["ghost"]);
        assert!(q.execute(&t).is_err());
    }
}
