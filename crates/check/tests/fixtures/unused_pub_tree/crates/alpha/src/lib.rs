//! Library under judgement in the `api/unused-pub` fixture workspace: one
//! item per way a `pub` can (fail to) be named from outside this crate.

pub fn only_inside(x: ViaFlagged) -> ViaFlagged { x } // BAD: api/unused-pub

fn caller() -> u8 { only_inside(ViaFlagged(0)).0 }

/// Named only by the flagged `only_inside`'s signature: flagged with it.
pub struct ViaFlagged(pub u8); // BAD: api/unused-pub

pub fn in_prose() {} // BAD: api/unused-pub

pub fn from_beta() -> ViaSignature { ViaSignature { field: ViaField } }

/// Named only by the used `from_beta`'s signature.
pub struct ViaSignature {
    pub field: ViaField,
}

/// Named only by a field of the used `ViaSignature`.
pub struct ViaField;

pub fn from_own_test() {}

pub fn from_own_bin() {}

impl ViaSignature {
    /// Outside, `reading` is only a local and a field: flagged.
    pub fn reading(&self) -> u8 { 0 } // BAD: api/unused-pub

    /// Passed outside as a path, `ViaSignature::passed`.
    pub fn passed(&self) -> u8 { 1 }
}

/// Listed in beta's `use` tree, then called there by its bare name.
pub fn listed() {}

/// Outside, `queue` is only a local; its item is reached through the
/// root re-export below: flagged.
pub mod queue { // BAD: api/unused-pub
    /// Re-exported at the crate root.
    pub struct Reexported;
}

pub use queue::Reexported;

mod event {
    /// Re-exported whole by the `pub use` below.
    pub mod names {
        /// Named through the re-export, `alpha::names::FIRST`.
        pub const FIRST: u8 = 1;
    }
}

pub use event::names;
