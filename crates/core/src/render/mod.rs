//! Map renderers: terminal text, standalone SVG, and JSON for web clients.

pub mod json;
pub mod svg;
pub mod text;

pub use json::{highlight_to_json, map_to_json, state_to_json, themes_to_json};
pub use svg::write_svg;
pub use text::{render_highlight, render_map, render_status, render_themes};
