//! The shipped analyses.
//!
//! Each rule is a pure function from scanned source to raw [`Finding`]s
//! (allow-annotation filtering happens in [`crate::run`]); fixtures and
//! mutation tests call the rules directly on synthetic files.
//!
//! [`Finding`]: crate::findings::Finding

pub mod blocking;
pub mod blocking_transitive;
pub mod drift;
pub mod unsafety;
