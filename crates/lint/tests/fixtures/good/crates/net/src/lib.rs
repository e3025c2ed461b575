//! Serving crate: fallible paths return Option; unwrap only in tests.
fn handle(body: Option<&str>) -> Option<usize> {
    body?.parse().ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        assert_eq!(super::handle(Some("3")).unwrap(), 3);
    }
}
