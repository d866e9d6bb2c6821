#[test]
fn smoke() {
    alpha::from_own_test();
}
