//! Fixture: `pub` items named only by their own file, their crate's
//! tests or a `pub use` re-export must trip R9.
pub fn live() -> u32 {
    helper()
}

pub fn helper() -> u32 {
    LIMIT
}

pub const LIMIT: u32 = 3;

pub fn tested_only() -> u32 {
    4
}

#[cfg(test)]
mod tests {
    #[test]
    fn uses_it() {
        assert_eq!(super::tested_only(), 4);
    }
}
