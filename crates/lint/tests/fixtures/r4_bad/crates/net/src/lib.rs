//! Fixture: unwrap/expect/panic on a serving path must trip R4.
fn handle(body: Option<&str>) -> usize {
    let text = body.unwrap();
    if text.is_empty() {
        panic!("empty body");
    }
    text.parse::<usize>().expect("numeric body")
}
