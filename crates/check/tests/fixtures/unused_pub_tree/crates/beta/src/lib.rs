//! The outside user. `alpha::in_prose` appears here in a comment and in a
//! string only, which names nothing.

fn user() -> &'static str {
    let _ = alpha::from_beta();
    "in_prose" // in_prose
}
