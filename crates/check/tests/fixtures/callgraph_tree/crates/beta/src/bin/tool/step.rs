//! A module of the `tool` binary, calling its root through `use crate::…`.

use crate::helper;

pub fn step() {
    helper();
}
