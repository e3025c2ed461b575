//! # blaeu-store — columnar storage substrate
//!
//! The storage engine under the Blaeu exploration system: an in-memory
//! columnar table store in the MonetDB tradition (the paper's DBMS tier),
//! with CSV ingestion, Select-Project query execution, seeded sampling
//! (including the multi-scale sampler behind Blaeu's interactive latency)
//! and seeded synthetic generators reproducing the demo's three datasets.
//!
//! ```
//! use blaeu_store::{Column, Predicate, SelectProject, TableBuilder};
//!
//! let table = TableBuilder::new("countries")
//!     .column("income", Column::dense_f64(vec![25.0, 35.0, 18.0]))
//!     .unwrap()
//!     .column("hours", Column::dense_f64(vec![8.0, 9.0, 25.0]))
//!     .unwrap()
//!     .build()
//!     .unwrap();
//!
//! let query = SelectProject::filtered(Predicate::lt("hours", 20.0));
//! let relaxed = query.execute(&table).unwrap();
//! assert_eq!(relaxed.nrows(), 2);
//! assert_eq!(query.to_sql("countries"),
//!            "SELECT * FROM \"countries\" WHERE \"hours\" < 20;");
//! ```

#![warn(missing_docs)]

pub mod bitmap;
pub mod column;
pub mod csv;
pub mod error;
pub mod generate;
pub mod predicate;
pub mod query;
pub mod sample;
pub mod schema;
pub mod snapshot;
pub mod table;
pub mod value;
pub mod view;

pub use bitmap::Bitmap;
pub use column::{Column, ColumnRead};
pub use csv::{
    read_csv, read_csv_file, read_csv_str, write_csv, write_csv_string, write_csv_view, CsvOptions,
};
pub use error::{Result, StoreError};
pub use predicate::{Bound, Predicate};
pub use query::SelectProject;
pub use sample::{prefix_sample, rng_from_seed, uniform_sample, MultiScaleSampler, StoreRng};
pub use schema::{ColumnRole, Field, Schema};
pub use snapshot::{checksum64, read_snapshot_bytes, write_snapshot_bytes};
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};
pub use view::{ColumnView, TableView};
