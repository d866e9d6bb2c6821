//! The outside user. `alpha::in_prose` appears here in a comment and in a
//! string only, which names nothing.

use alpha::{listed, ViaSignature};

/// Shares its field's name with `alpha`'s `ViaSignature::reading`.
struct Meter {
    reading: u8,
}

fn user() -> &'static str {
    let _ = alpha::from_beta();
    listed();
    let _ = Some(alpha::from_beta()).as_ref().map(ViaSignature::passed);
    let reading = Meter { reading: 1 }.reading;
    let queue = alpha::Reexported;
    let _ = (reading, queue, alpha::names::FIRST);
    "in_prose" // in_prose
}
