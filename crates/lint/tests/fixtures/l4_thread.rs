//! Fixture seeding rule L4: thread creation outside a sanctioned owner.
//! Not compiled — lexed and linted by `fixtures_test.rs`.

pub fn direct_spawn() {
    std::thread::spawn(|| {});
}

pub fn scoped_spawn() {
    std::thread::scope(|_s| {});
}

pub fn named_builder() {
    let _ = std::thread::Builder::new();
}

pub fn querying_parallelism_is_fine() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
