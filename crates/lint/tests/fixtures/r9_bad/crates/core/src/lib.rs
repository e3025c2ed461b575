//! Another crate: its call keeps `live` live; a re-export keeps nothing.
pub use store::helper;

fn go() -> u32 {
    store::live()
}
