//! Table schemas: named, typed, role-annotated fields.

use crate::error::{Result, StoreError};
use crate::value::DataType;

/// Semantic role of a column, used by Blaeu's preprocessing.
///
/// Primary keys are excluded from clustering (they would dominate any
/// distance); labels (like a country name) are kept for *highlight* but not
/// clustered; measures and dimensions participate in maps and themes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnRole {
    /// Unique identifier; removed by preprocessing.
    Key,
    /// Human-readable identifier (e.g. country name); shown on highlight.
    Label,
    /// Analyzable attribute (default).
    Attribute,
}

/// A named, typed field with a semantic role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within a schema.
    pub name: String,
    /// Logical type.
    pub dtype: DataType,
    /// Semantic role.
    pub role: ColumnRole,
}

impl Field {
    /// Creates an attribute field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
            role: ColumnRole::Attribute,
        }
    }

    /// Creates a field with an explicit role.
    pub fn with_role(name: impl Into<String>, dtype: DataType, role: ColumnRole) -> Self {
        Field {
            name: name.into(),
            dtype,
            role,
        }
    }
}

/// An ordered collection of uniquely named fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    ///
    /// # Errors
    /// Returns [`StoreError::DuplicateColumn`] when two fields share a name.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            if !seen.insert(f.name.as_str()) {
                return Err(StoreError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields })
    }

    /// Empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field at position `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Position of the field named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Field named `name`, as an error-carrying lookup.
    ///
    /// # Errors
    /// Returns [`StoreError::ColumnNotFound`] when absent.
    pub(crate) fn field_by_name(&self, name: &str) -> Result<&Field> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| StoreError::ColumnNotFound(name.to_owned()))
    }

    /// Names of all fields in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Appends a field.
    ///
    /// # Errors
    /// Returns [`StoreError::DuplicateColumn`] when the name already exists.
    pub fn push(&mut self, field: Field) -> Result<()> {
        if self.index_of(&field.name).is_some() {
            return Err(StoreError::DuplicateColumn(field.name));
        }
        self.fields.push(field);
        Ok(())
    }

    /// Sub-schema with only the named fields, in the given order.
    ///
    /// # Errors
    /// Returns [`StoreError::ColumnNotFound`] for unknown names.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for &name in names {
            fields.push(self.field_by_name(name)?.clone());
        }
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::with_role("id", DataType::Int64, ColumnRole::Key),
            Field::new("salary", DataType::Float64),
            Field::with_role("country", DataType::Categorical, ColumnRole::Label),
        ])
        .unwrap()
    }

    #[test]
    fn schema_lookup() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("salary"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.field_by_name("country").unwrap().role, ColumnRole::Label);
        assert!(matches!(
            s.field_by_name("nope"),
            Err(StoreError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("a", DataType::Float64),
        ]);
        assert!(matches!(err, Err(StoreError::DuplicateColumn(_))));
    }

    #[test]
    fn push_rejects_duplicates() {
        let mut s = sample();
        assert!(s.push(Field::new("salary", DataType::Int64)).is_err());
        assert!(s.push(Field::new("age", DataType::Int64)).is_ok());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn project_selects_and_reorders() {
        let s = sample();
        let p = s.project(&["country", "salary"]).unwrap();
        assert_eq!(p.names(), vec!["country", "salary"]);
        assert!(s.project(&["missing"]).is_err());
    }

    #[test]
    fn names_in_order() {
        assert_eq!(sample().names(), vec!["id", "salary", "country"]);
    }
}
