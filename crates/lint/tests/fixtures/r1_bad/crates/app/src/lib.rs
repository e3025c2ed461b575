//! Fixture: thread primitives outside crates/exec must trip R1.
fn go() {
    std::thread::spawn(|| {});
}
