//! A binary with its own modules: `crate::` in them names this root.

mod step;

fn helper() {}

fn main() {
    step::step();
}
