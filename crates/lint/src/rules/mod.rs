//! The shipped analyses.
//!
//! Each rule is a pure function from scanned source to [`Finding`]s;
//! fixtures call the rules directly on synthetic files.
//!
//! [`Finding`]: crate::Finding

pub mod drift;
pub mod unsafety;
