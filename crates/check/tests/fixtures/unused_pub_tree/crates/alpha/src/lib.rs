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
